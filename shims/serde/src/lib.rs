//! A minimal, self-contained stand-in for the parts of `serde` this
//! workspace uses: `Serialize` / `Deserialize` traits (with derive
//! macros), a format-agnostic [`Serializer`] sink, and an in-memory
//! [`Value`] tree.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors this shim instead of the real crate. The data
//! model is deliberately simple. Serialization emits a value as a
//! stream of sink calls ([`Serialize::serialize`]); `serde_json` (the
//! sibling shim) implements the sink as a JSON text writer, so reports
//! are written without building a tree first. [`Serialize::to_value`]
//! collects the same calls into a [`Value`] tree for callers that edit
//! documents, and deserialization reads from a tree, every JSON object
//! through the one strict [`MapReader`] (derived and hand-written
//! impls alike). Field order is preserved, so output is stable across
//! runs — which the golden-report tests rely on.
//!
//! ```
//! use serde::Value;
//!
//! let v = Value::Map(vec![("x".into(), Value::U64(3))]);
//! assert_eq!(v.get("x"), Some(&Value::U64(3)));
//! assert_eq!(v.kind(), "map");
//! ```

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use de::MapReader;
pub use serde_derive::{Deserialize, Serialize};

mod de;

/// The in-memory serialization tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Seq(Vec<Value>),
    /// Insertion-ordered map (JSON object).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Human-readable kind name, for error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) | Value::I64(_) | Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }

    /// Looks up a key in a `Map` value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Serialization / deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Creates an error from a message.
    #[must_use]
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// The sink a [`Serialize`] impl emits into: scalars, plus sequences
/// and maps bracketed by begin/end calls. A map's entries alternate
/// [`key`](Serializer::key) and one value. Begin calls carry the
/// element count, which the impl always knows.
pub trait Serializer {
    /// `null` (also `None` and unit structs).
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, v: bool);
    /// A non-negative integer.
    fn u64(&mut self, v: u64);
    /// A signed integer.
    fn i64(&mut self, v: i64);
    /// A float, non-finite ones included.
    fn f64(&mut self, v: f64);
    /// A string.
    fn str(&mut self, v: &str);
    /// Opens a sequence of `len` elements.
    fn seq_begin(&mut self, len: usize);
    /// Closes the innermost sequence.
    fn seq_end(&mut self);
    /// Opens a map of `len` entries.
    fn map_begin(&mut self, len: usize);
    /// The key of the next map entry; its value follows.
    fn key(&mut self, k: &str);
    /// Closes the innermost map.
    fn map_end(&mut self);
}

/// A value that can emit itself into a [`Serializer`] and lower itself
/// to a [`Value`] tree.
///
/// Hand-written impls may implement only [`to_value`](Self::to_value):
/// the default [`serialize`](Self::serialize) walks the tree it builds.
/// Derived and built-in impls emit straight into the sink and build
/// trees with [`build_value`].
pub trait Serialize {
    /// Lowers `self` to a [`Value`] tree.
    fn to_value(&self) -> Value;

    /// Emits `self` into `out`.
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        self.to_value().serialize(out);
    }
}

/// Collects what `v` emits into a [`Value`] tree — the
/// [`Serialize::to_value`] of every impl that emits directly.
pub fn build_value<T: Serialize + ?Sized>(v: &T) -> Value {
    let mut b = ValueBuilder::default();
    v.serialize(&mut b);
    b.done.expect("a serialized value is complete")
}

/// A [`Serializer`] that assembles a [`Value`] tree.
#[derive(Default)]
struct ValueBuilder {
    /// Open containers, innermost last; a map carries its pending key.
    open: Vec<(Value, Option<String>)>,
    done: Option<Value>,
}

impl ValueBuilder {
    fn put(&mut self, v: Value) {
        match self.open.last_mut() {
            None => self.done = Some(v),
            Some((Value::Seq(items), _)) => items.push(v),
            Some((Value::Map(entries), key)) => {
                entries.push((key.take().expect("a map value follows its key"), v));
            }
            Some(_) => unreachable!("only containers are open"),
        }
    }

    fn close(&mut self) {
        let (v, _) = self.open.pop().expect("end matches a begin");
        self.put(v);
    }
}

impl Serializer for ValueBuilder {
    fn null(&mut self) {
        self.put(Value::Null);
    }
    fn bool(&mut self, v: bool) {
        self.put(Value::Bool(v));
    }
    fn u64(&mut self, v: u64) {
        self.put(Value::U64(v));
    }
    fn i64(&mut self, v: i64) {
        self.put(Value::I64(v));
    }
    fn f64(&mut self, v: f64) {
        self.put(Value::F64(v));
    }
    fn str(&mut self, v: &str) {
        self.put(Value::Str(v.to_string()));
    }
    fn seq_begin(&mut self, len: usize) {
        self.open.push((Value::Seq(Vec::with_capacity(len)), None));
    }
    fn seq_end(&mut self) {
        self.close();
    }
    fn map_begin(&mut self, len: usize) {
        self.open.push((Value::Map(Vec::with_capacity(len)), None));
    }
    fn key(&mut self, k: &str) {
        let (_, key) = self.open.last_mut().expect("a key belongs to an open map");
        *key = Some(k.to_string());
    }
    fn map_end(&mut self) {
        self.close();
    }
}

/// A value reconstructible from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// # Errors
    /// Returns an error when `v` does not have the expected shape.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// The value a struct field of this type takes when its key is
    /// absent: `Some(None)` for `Option`, like real serde; `None` (a
    /// missing-field error) for everything else.
    #[must_use]
    fn absent() -> Option<Self> {
        None
    }
}

// ---- helpers used by the derive-generated code ----

/// # Errors
/// Errors when `v` is not a map.
pub fn expect_map<'v>(v: &'v Value, ty: &str) -> Result<&'v [(String, Value)], Error> {
    match v {
        Value::Map(m) => Ok(m),
        other => Err(Error::msg(format!(
            "expected map for {ty}, found {}",
            other.kind()
        ))),
    }
}

/// # Errors
/// Errors when `v` is not a sequence of exactly `len` elements.
pub fn expect_seq<'v>(v: &'v Value, ty: &str, len: usize) -> Result<&'v [Value], Error> {
    match v {
        Value::Seq(s) if s.len() == len => Ok(s),
        Value::Seq(s) => Err(Error::msg(format!(
            "expected {len} elements for {ty}, found {}",
            s.len()
        ))),
        other => Err(Error::msg(format!(
            "expected sequence for {ty}, found {}",
            other.kind()
        ))),
    }
}

/// The error for an enum tag outside `variants`.
#[must_use]
pub fn unknown_variant(ty: &str, tag: &str, variants: &[&str]) -> Error {
    Error::msg(format!(
        "{ty}: unknown variant `{tag}`; valid variants: {}",
        variants.join(", ")
    ))
}

/// The error for an enum value that is neither a variant name nor a
/// single-key object.
#[must_use]
pub fn expected_variant(ty: &str, v: &Value) -> Error {
    let found = match v {
        Value::Map(m) => format!("an object with {} keys", m.len()),
        other => other.kind().to_string(),
    };
    Error::msg(format!(
        "{ty}: expected a variant name or a single-key object, found {found}"
    ))
}

// ---- primitive impls ----

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(u64::from(*self))
            }
            fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
                out.u64(u64::from(*self));
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::U64(n) => n,
                    Value::I64(n) if n >= 0 => n as u64,
                    ref other => {
                        return Err(Error::msg(format!(
                            "expected unsigned integer, found {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::msg(format!("integer {n} out of range")))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64);

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::U64(*self as u64)
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        out.u64(*self as u64);
    }
}
impl Deserialize for usize {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let n = u64::from_value(v)?;
        usize::try_from(n).map_err(|_| Error::msg(format!("integer {n} out of range")))
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(i64::from(*self))
            }
            fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
                out.i64(i64::from(*self));
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::I64(n) => n,
                    Value::U64(n) => i64::try_from(n)
                        .map_err(|_| Error::msg(format!("integer {n} out of range")))?,
                    ref other => {
                        return Err(Error::msg(format!(
                            "expected integer, found {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::msg(format!("integer {n} out of range")))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64);

impl Serialize for isize {
    fn to_value(&self) -> Value {
        Value::I64(*self as i64)
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        out.i64(*self as i64);
    }
}
impl Deserialize for isize {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let n = i64::from_value(v)?;
        isize::try_from(n).map_err(|_| Error::msg(format!("integer {n} out of range")))
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        out.f64(*self);
    }
}
impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match *v {
            Value::F64(x) => Ok(x),
            Value::U64(n) => Ok(n as f64),
            Value::I64(n) => Ok(n as f64),
            // Non-finite floats are serialized as strings (JSON has no
            // literal for them); accept them back here.
            Value::Str(ref s) => match s.as_str() {
                "Infinity" => Ok(f64::INFINITY),
                "-Infinity" => Ok(f64::NEG_INFINITY),
                "NaN" => Ok(f64::NAN),
                _ => Err(Error::msg(format!("expected number, found string {s:?}"))),
            },
            ref other => Err(Error::msg(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        out.f64(f64::from(*self));
    }
}
impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(f64::from_value(v)? as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        out.bool(*self);
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match *v {
            Value::Bool(b) => Ok(b),
            ref other => Err(Error::msg(format!("expected bool, found {}", other.kind()))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        out.str(self);
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::msg(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        out.str(self);
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        out.str(self.encode_utf8(&mut [0; 4]));
    }
}
impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = String::from_value(v)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::msg(format!("expected single char, found {s:?}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        match self {
            Some(x) => x.serialize(out),
            None => out.null(),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        self.as_slice().serialize(out);
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(s) => s.iter().map(T::from_value).collect(),
            other => Err(Error::msg(format!(
                "expected sequence, found {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        build_value(self)
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        out.seq_begin(self.len());
        for x in self {
            x.serialize(out);
        }
        out.seq_end();
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        (**self).serialize(out);
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Box::new(T::from_value(v)?))
    }
}

macro_rules! impl_tuple {
    ($len:literal; $($t:ident . $idx:tt),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                build_value(self)
            }
            fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
                out.seq_begin($len);
                $(self.$idx.serialize(out);)+
                out.seq_end();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let s = expect_seq(v, "tuple", $len)?;
                Ok(($($t::from_value(&s[$idx])?,)+))
            }
        }
    };
}
impl_tuple!(1; A.0);
impl_tuple!(2; A.0, B.1);
impl_tuple!(3; A.0, B.1, C.2);
impl_tuple!(4; A.0, B.1, C.2, D.3);

impl<T: Serialize> Serialize for std::ops::Range<T> {
    fn to_value(&self) -> Value {
        build_value(self)
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        out.map_begin(2);
        out.key("start");
        self.start.serialize(out);
        out.key("end");
        self.end.serialize(out);
        out.map_end();
    }
}
impl<T: Deserialize> Deserialize for std::ops::Range<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let mut r = MapReader::new("Range", v)?;
        Ok(r.req("start")?..r.req("end")?)
    }
}

/// Emits `entries` as a map, in the order given.
fn serialize_entries<'a, V, S>(out: &mut S, entries: impl ExactSizeIterator<Item = (&'a String, V)>)
where
    V: Serialize,
    S: Serializer + ?Sized,
{
    out.map_begin(entries.len());
    for (k, v) in entries {
        out.key(k);
        v.serialize(out);
    }
    out.map_end();
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        build_value(self)
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        serialize_entries(out, self.iter());
    }
}
impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = expect_map(v, "BTreeMap")?;
        m.iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl<V: Serialize, H: std::hash::BuildHasher> Serialize for HashMap<String, V, H> {
    fn to_value(&self) -> Value {
        build_value(self)
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        // Sort for deterministic output.
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        serialize_entries(out, entries.into_iter());
    }
}
impl<V: Deserialize, S: std::hash::BuildHasher + Default> Deserialize for HashMap<String, V, S> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = expect_map(v, "HashMap")?;
        m.iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
    fn serialize<S: Serializer + ?Sized>(&self, out: &mut S) {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => out.bool(*b),
            Value::U64(n) => out.u64(*n),
            Value::I64(n) => out.i64(*n),
            Value::F64(x) => out.f64(*x),
            Value::Str(s) => out.str(s),
            Value::Seq(items) => items.serialize(out),
            Value::Map(entries) => {
                serialize_entries(out, entries.iter().map(|(k, v)| (k, v)));
            }
        }
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

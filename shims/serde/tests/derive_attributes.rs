//! The real-serde attributes the derive shim understands, and the
//! strict-reading contract of the code it generates: unknown keys are
//! rejected with the valid ones listed, `null` reads as absent,
//! duplicate keys are errors, and a container's `rename` is the
//! context every field error carries.

use serde::{Deserialize, Error, Serialize, Serializer, Value};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename = "knobs", deny_unknown_fields)]
struct Knobs {
    required: u64,
    #[serde(default)]
    plain_default: u64,
    #[serde(default = "Knobs::seven")]
    path_default: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    maybe: Option<String>,
    #[serde(with = "doubled")]
    halved: u64,
    #[serde(default, deserialize_with = "checked")]
    checked: u64,
}

impl Knobs {
    fn seven() -> u64 {
        7
    }
}

/// Writes the value doubled and reads it back halved.
mod doubled {
    use super::{Deserialize, Error, Serializer, Value};

    pub fn serialize<S: Serializer + ?Sized>(v: &u64, out: &mut S) {
        out.u64(v * 2);
    }

    pub fn deserialize(v: &Value) -> Result<u64, Error> {
        Ok(u64::from_value(v)? / 2)
    }
}

fn checked(v: &Value) -> Result<u64, Error> {
    match u64::from_value(v)? {
        0 => Err(Error::msg("must be > 0")),
        n => Ok(n),
    }
}

/// Every field defaults from the container's `Default`.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
struct Defaults {
    a: u64,
    b: String,
}

impl Default for Defaults {
    fn default() -> Self {
        Defaults {
            a: 3,
            b: "x".into(),
        }
    }
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename = "shape", rename_all = "snake_case", deny_unknown_fields)]
enum Shape {
    UnitSquare,
    AllToAll {
        #[serde(default = "Shape::one")]
        width: f64,
    },
    #[serde(deserialize_with = "non_blank")]
    NamedAfter(String),
}

impl Shape {
    fn one() -> f64 {
        1.0
    }
}

fn non_blank(v: &Value) -> Result<String, Error> {
    let s = String::from_value(v)?;
    if s.trim().is_empty() {
        return Err(Error::msg("must be non-empty"));
    }
    Ok(s)
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
enum Mode {
    Compile,
    TrainingForward,
}

/// A struct without `deny_unknown_fields` ignores unknown keys.
#[derive(Debug, PartialEq, Deserialize)]
struct Lenient {
    a: u64,
}

fn parse<T: Deserialize>(json: &str) -> Result<T, String> {
    serde_json::from_str(json).map_err(|e| e.to_string())
}

#[test]
fn unknown_keys_are_rejected_listing_the_valid_ones() {
    let e = parse::<Knobs>(r#"{"required": 1, "halved": 2, "tpyo": 3}"#).unwrap_err();
    assert_eq!(
        e,
        "knobs: unknown field(s) `tpyo`; valid keys: required, plain_default, \
         path_default, maybe, halved, checked"
    );
    let e = parse::<Shape>(r#"{"all_to_all": {"widht": 2.0}}"#).unwrap_err();
    assert_eq!(
        e,
        "shape.all_to_all: unknown field(s) `widht`; valid keys: width"
    );
    let lenient: Lenient = parse(r#"{"a": 1, "extra": true}"#).unwrap();
    assert_eq!(lenient, Lenient { a: 1 });
}

#[test]
fn defaults_fill_absent_fields() {
    let k: Knobs = parse(r#"{"required": 1, "halved": 10}"#).unwrap();
    assert_eq!(
        k,
        Knobs {
            required: 1,
            plain_default: 0,
            path_default: 7,
            maybe: None,
            halved: 5,
            checked: 0,
        }
    );
    let d: Defaults = parse(r#"{"b": "y"}"#).unwrap();
    assert_eq!(
        d,
        Defaults {
            a: 3,
            b: "y".into()
        }
    );
    let s: Shape = parse(r#"{"all_to_all": {}}"#).unwrap();
    assert_eq!(s, Shape::AllToAll { width: 1.0 });
}

#[test]
fn missing_required_fields_are_named() {
    let e = parse::<Knobs>(r#"{"halved": 2}"#).unwrap_err();
    assert_eq!(e, "knobs: missing required field `required`");
    let e = parse::<Knobs>(r#"{"required": 2}"#).unwrap_err();
    assert_eq!(e, "knobs: missing required field `halved`");
}

#[test]
fn null_reads_as_absent() {
    let k: Knobs = parse(
        r#"{"required": 1, "plain_default": null, "path_default": null,
            "maybe": null, "halved": 4, "checked": null}"#,
    )
    .unwrap();
    assert_eq!(
        (k.plain_default, k.path_default, k.maybe, k.checked),
        (0, 7, None, 0)
    );
    let d: Defaults = parse(r#"{"a": null}"#).unwrap();
    assert_eq!(d, Defaults::default());
    let e = parse::<Knobs>(r#"{"required": null, "halved": 4}"#).unwrap_err();
    assert_eq!(e, "knobs: missing required field `required`");
}

#[test]
fn duplicate_keys_are_rejected() {
    let e = parse::<Knobs>(r#"{"required": 1, "halved": 2, "required": 3}"#).unwrap_err();
    assert_eq!(e, "knobs: duplicate key `required`");
    let e = parse::<Lenient>(r#"{"a": 1, "a": 2}"#).unwrap_err();
    assert_eq!(e, "Lenient: duplicate key `a`");
}

#[test]
fn skip_serializing_if_drops_the_key() {
    let mut k = Knobs {
        required: 1,
        plain_default: 2,
        path_default: 3,
        maybe: None,
        halved: 4,
        checked: 5,
    };
    let json = serde_json::to_string(&k).unwrap();
    assert_eq!(
        json,
        r#"{"required":1,"plain_default":2,"path_default":3,"halved":8,"checked":5}"#
    );
    assert_eq!(parse::<Knobs>(&json).unwrap(), k);
    k.maybe = Some("m".into());
    let v = k.to_value();
    assert_eq!(v.get("maybe"), Some(&Value::Str("m".into())));
    assert_eq!(
        parse::<Knobs>(&serde_json::to_string(&k).unwrap()).unwrap(),
        k
    );
}

#[test]
fn rename_all_renames_enum_variants() {
    assert_eq!(
        serde_json::to_string(&Shape::UnitSquare).unwrap(),
        r#""unit_square""#
    );
    assert_eq!(
        serde_json::to_string(&Shape::AllToAll { width: 2.0 }).unwrap(),
        r#"{"all_to_all":{"width":2.0}}"#
    );
    assert_eq!(
        parse::<Shape>(r#""unit_square""#).unwrap(),
        Shape::UnitSquare
    );
    assert_eq!(
        serde_json::to_string(&Mode::TrainingForward).unwrap(),
        r#""trainingforward""#
    );
    assert_eq!(parse::<Mode>(r#""compile""#).unwrap(), Mode::Compile);
    let e = parse::<Shape>(r#""UnitSquare""#).unwrap_err();
    assert_eq!(
        e,
        "shape: unknown variant `UnitSquare`; valid variants: unit_square, all_to_all, named_after"
    );
    let e = parse::<Shape>(r#"{"unit_square": 1, "all_to_all": {}}"#).unwrap_err();
    assert_eq!(
        e,
        "shape: expected a variant name or a single-key object, found an object with 2 keys"
    );
}

#[test]
fn with_and_deserialize_with_route_through_the_named_functions() {
    let k: Knobs = parse(r#"{"required": 1, "halved": 6, "checked": 9}"#).unwrap();
    assert_eq!((k.halved, k.checked), (3, 9));
    assert_eq!(k.to_value().get("halved"), Some(&Value::U64(6)));
    let e = parse::<Knobs>(r#"{"required": 1, "halved": 6, "checked": 0}"#).unwrap_err();
    assert_eq!(e, "knobs.checked: must be > 0");
    let s: Shape = parse(r#"{"named_after": "ring"}"#).unwrap();
    assert_eq!(s, Shape::NamedAfter("ring".into()));
    let e = parse::<Shape>(r#"{"named_after": " "}"#).unwrap_err();
    assert_eq!(e, "shape.named_after: must be non-empty");
}

#[test]
fn container_rename_is_the_error_context() {
    let e = parse::<Knobs>(r#"{"required": "one", "halved": 2}"#).unwrap_err();
    assert_eq!(e, "knobs.required: expected unsigned integer, found string");
    let e = parse::<Shape>(r#"{"all_to_all": {"width": true}}"#).unwrap_err();
    assert_eq!(e, "shape.all_to_all.width: expected number, found bool");
    // Without `rename`, the type name is the context.
    let e = parse::<Defaults>(r#"{"a": "x"}"#).unwrap_err();
    assert_eq!(e, "Defaults.a: expected unsigned integer, found string");
    // `rename` does not change the JSON written.
    assert_eq!(
        serde_json::to_string(&Defaults::default()).unwrap(),
        r#"{"a":3,"b":"x"}"#
    );
}

//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the vendored
//! serde shim.
//!
//! The offline build environment has no `syn`/`quote`, so this crate
//! parses the item's `TokenStream` directly. It supports exactly the
//! shapes this workspace uses:
//!
//! - structs with named fields,
//! - tuple structs (including `#[serde(transparent)]` newtypes),
//! - enums with unit, tuple, and struct variants (externally tagged,
//!   matching real serde's default representation).
//!
//! Generics are not supported — none of the workspace's serialized
//! types are generic.
//!
//! # Attributes
//!
//! The shim understands this subset of real serde's attributes, with
//! the same meaning, so the annotated types build unchanged against
//! the real crates:
//!
//! - container: `transparent`, `deny_unknown_fields`, `default`,
//!   `default = "path"`, `rename = "name"`, and
//!   `rename_all = "lowercase" | "snake_case"`;
//! - field: `default`, `default = "path"`,
//!   `skip_serializing_if = "path"`, `with = "module"`, and
//!   `deserialize_with = "path"`;
//! - newtype variant: `deserialize_with = "path"`.
//!
//! Any other `serde` attribute is a compile error. A `with` module and
//! a `deserialize_with` function speak the shim's data model rather
//! than real serde's: `fn serialize<S: Serializer + ?Sized>(&T, &mut S)`
//! and `fn deserialize(&Value) -> Result<T, Error>`.
//!
//! A missing `Option` field reads as `None`, as in real serde. Every
//! derived struct reads its map through `serde::MapReader`, which
//! differs from real serde in three ways:
//!
//! - JSON `null` reads as an absent field, so a defaulted field given
//!   `null` takes its default;
//! - a duplicate key is an error even without `deny_unknown_fields`;
//! - a field's error is wrapped as `"{ctx}.{key}: {e}"`, where `ctx` is
//!   the container's `rename` (or its type name). For JSON, `rename` on
//!   a struct changes nothing else, so it serves as the error context.
//!
//! With `deny_unknown_fields`, an unknown key fails as
//! `"{ctx}: unknown field(s) `k`; valid keys: a, b"`.
//!
//! ```
//! use serde::{Deserialize, Serialize, Value};
//!
//! #[derive(Serialize, Deserialize, Debug, PartialEq)]
//! #[serde(rename = "point", deny_unknown_fields)]
//! struct Point {
//!     x: u64,
//!     #[serde(default)]
//!     y: u64,
//! }
//!
//! let v = Point { x: 1, y: 2 }.to_value();
//! assert_eq!(v.get("y"), Some(&Value::U64(2)));
//! let p: Point = serde_json::from_str(r#"{"x": 1}"#).unwrap();
//! assert_eq!(p, Point { x: 1, y: 0 });
//! let e = serde_json::from_str::<Point>(r#"{"x": 1, "z": 0}"#).unwrap_err();
//! assert_eq!(e.to_string(), "point: unknown field(s) `z`; valid keys: x, y");
//! ```

#![warn(missing_docs)]

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

#[derive(Debug)]
struct Item {
    name: String,
    attrs: Attrs,
    kind: ItemKind,
}

#[derive(Debug)]
enum ItemKind {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Field {
    name: String,
    attrs: Attrs,
}

#[derive(Debug)]
struct Variant {
    name: String,
    attrs: Attrs,
    fields: VariantFields,
}

#[derive(Debug)]
enum VariantFields {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

/// The `#[serde(...)]` attributes on one container, field or variant.
#[derive(Debug, Default)]
struct Attrs {
    transparent: bool,
    deny_unknown_fields: bool,
    /// `Some(None)` for bare `default`, `Some(Some(path))` for
    /// `default = "path"`.
    default: Option<Option<String>>,
    rename: Option<String>,
    rename_all: Option<String>,
    skip_serializing_if: Option<String>,
    with: Option<String>,
    deserialize_with: Option<String>,
}

impl Attrs {
    fn set(&mut self, key: &str, value: Option<String>) {
        match (key, value) {
            ("transparent", None) => self.transparent = true,
            ("deny_unknown_fields", None) => self.deny_unknown_fields = true,
            ("default", v) => self.default = Some(v),
            ("rename", Some(v)) => self.rename = Some(v),
            ("rename_all", Some(v)) => self.rename_all = Some(v),
            ("skip_serializing_if", Some(v)) => self.skip_serializing_if = Some(v),
            ("with", Some(v)) => self.with = Some(v),
            ("deserialize_with", Some(v)) => self.deserialize_with = Some(v),
            (k, v) => panic!("serde_derive shim: unsupported attribute `{k}` ({v:?})"),
        }
    }

    /// Folds one attribute group (the `[...]` contents) in, if it is
    /// `serde(...)`.
    fn read(&mut self, group: &Group) {
        let mut it = group.stream().into_iter();
        let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) = (it.next(), it.next())
        else {
            return;
        };
        if id.to_string() != "serde" {
            return;
        }
        let tokens: Vec<TokenTree> = args.stream().into_iter().collect();
        for item in tokens.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
            match item {
                [] => {}
                [TokenTree::Ident(k)] => self.set(&k.to_string(), None),
                [TokenTree::Ident(k), TokenTree::Punct(eq), TokenTree::Literal(lit)]
                    if eq.as_char() == '=' =>
                {
                    let lit = lit.to_string();
                    self.set(&k.to_string(), Some(lit.trim_matches('"').to_string()));
                }
                other => panic!("serde_derive shim: unsupported attribute syntax {other:?}"),
            }
        }
    }

    /// The function that deserializes this field or variant payload.
    fn deserializer(&self) -> String {
        match (&self.with, &self.deserialize_with) {
            (Some(m), _) => format!("{m}::deserialize"),
            (None, Some(f)) => f.clone(),
            (None, None) => "<_ as ::serde::Deserialize>::from_value".to_string(),
        }
    }
}

/// Parses the `#[...]` attributes starting at `i`, advancing past them.
fn parse_attrs(tokens: &[TokenTree], i: &mut usize) -> Attrs {
    let mut attrs = Attrs::default();
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        *i += 1;
        if let Some(TokenTree::Group(g)) = tokens.get(*i) {
            attrs.read(g);
            *i += 1;
        }
    }
    attrs
}

/// Advances past a visibility qualifier (`pub`, `pub(crate)`, ...) if
/// present.
fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Parses the named fields of a brace-delimited body, in declaration
/// order.
fn parse_named_fields(group: &Group) -> Vec<Field> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = parse_attrs(&tokens, &mut i);
        skip_vis(&tokens, &mut i);
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            break;
        };
        fields.push(Field {
            name: name.to_string(),
            attrs,
        });
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive: expected `:` after field, found {other:?}"),
        }
        // Skip the type: everything until a comma at angle-bracket
        // depth 0. Nested (), [], {} arrive as whole Groups, so only
        // generic brackets need depth tracking.
        let mut depth = 0i32;
        while let Some(t) = tokens.get(i) {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

/// Counts the fields of a paren-delimited (tuple) body.
fn count_tuple_fields(group: &Group) -> usize {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut fields = 1;
    let mut trailing_comma = false;
    for t in &tokens {
        trailing_comma = false;
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                fields += 1;
                trailing_comma = true;
            }
            _ => {}
        }
    }
    if trailing_comma {
        fields -= 1;
    }
    fields
}

fn parse_variants(group: &Group) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = parse_attrs(&tokens, &mut i);
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            break;
        };
        let name = name.to_string();
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantFields::Named(parse_named_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantFields::Tuple(count_tuple_fields(g))
            }
            _ => VariantFields::Unit,
        };
        // Skip an optional discriminant, then the separating comma.
        while let Some(t) = tokens.get(i) {
            i += 1;
            if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(Variant {
            name,
            attrs,
            fields,
        });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut attrs = Attrs::default();
    let keyword = loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    attrs.read(g);
                    i += 1;
                }
            }
            Some(TokenTree::Ident(id))
                if id.to_string() == "struct" || id.to_string() == "enum" =>
            {
                let k = id.to_string();
                i += 1;
                break k;
            }
            Some(_) => i += 1,
            None => panic!("serde_derive: no struct or enum found in derive input"),
        }
    };
    let Some(TokenTree::Ident(name)) = tokens.get(i) else {
        panic!("serde_derive: expected type name after `{keyword}`");
    };
    let name = name.to_string();
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic type `{name}` is not supported");
    }
    let kind = if keyword == "enum" {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                ItemKind::Enum(parse_variants(g))
            }
            other => panic!("serde_derive: expected enum body, found {other:?}"),
        }
    } else {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                ItemKind::NamedStruct(parse_named_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                ItemKind::TupleStruct(count_tuple_fields(g))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => ItemKind::UnitStruct,
            other => panic!("serde_derive: expected struct body, found {other:?}"),
        }
    };
    Item { name, attrs, kind }
}

// ---- names ----

impl Item {
    /// The error context: the container's `rename`, else its type name.
    fn ctx(&self) -> &str {
        self.attrs.rename.as_deref().unwrap_or(&self.name)
    }

    /// The serialized name of a field (structs) or variant (enums)
    /// under the container's `rename_all`.
    fn key(&self, name: &str) -> String {
        let is_variant = matches!(self.kind, ItemKind::Enum(_));
        match self.attrs.rename_all.as_deref() {
            None => name.to_string(),
            // Field names are already snake_case.
            Some("lowercase" | "snake_case") if !is_variant => name.to_string(),
            Some("lowercase") => name.to_ascii_lowercase(),
            Some("snake_case") => {
                let mut out = String::new();
                for (i, c) in name.char_indices() {
                    if i > 0 && c.is_ascii_uppercase() {
                        out.push('_');
                    }
                    out.push(c.to_ascii_lowercase());
                }
                out
            }
            Some(other) => panic!("serde_derive shim: unsupported rename_all = {other:?}"),
        }
    }

    /// The serialized keys of `fields`, as a `&[&str]` literal.
    fn key_list<'a>(&self, names: impl Iterator<Item = &'a str>) -> String {
        let keys: Vec<String> = names.map(|n| format!("{:?}", self.key(n))).collect();
        format!("&[{}]", keys.join(", "))
    }
}

// ---- code generation (as source strings, parsed back into tokens) ----

/// Emits `fields` as a map, where `access` maps a field name to an
/// expression of type `&FieldType`. Fields with `skip_serializing_if`
/// are left out (and out of the length) when the predicate holds.
fn emit_map(item: &Item, fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut len = fields.len().to_string();
    let mut body = String::new();
    for f in fields {
        let value = access(&f.name);
        let ser = match &f.attrs.with {
            Some(m) => format!("{m}::serialize({value}, __s);"),
            None => format!("::serde::Serialize::serialize({value}, __s);"),
        };
        let entry = format!("__s.key({:?}); {ser}", item.key(&f.name));
        match &f.attrs.skip_serializing_if {
            Some(skip) => {
                len.push_str(&format!(" - usize::from({skip}({value}))"));
                body.push_str(&format!("if !{skip}({value}) {{ {entry} }}"));
            }
            None => body.push_str(&entry),
        }
    }
    format!("__s.map_begin({len}); {body} __s.map_end();")
}

/// Opens an `n`-element sequence, emits `elems`, and closes it.
fn emit_seq(n: usize, elems: impl Fn(usize) -> String) -> String {
    let body: String = (0..n)
        .map(|i| format!("::serde::Serialize::serialize({}, __s);", elems(i)))
        .collect();
    format!("__s.seq_begin({n}); {body} __s.seq_end();")
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::NamedStruct(fields) => emit_map(item, fields, |f| format!("&self.{f}")),
        ItemKind::TupleStruct(1) if item.attrs.transparent => {
            "::serde::Serialize::serialize(&self.0, __s);".to_string()
        }
        ItemKind::TupleStruct(n) => emit_seq(*n, |i| format!("&self.{i}")),
        ItemKind::UnitStruct => "__s.null();".to_string(),
        ItemKind::Enum(variants) => {
            // Externally tagged: a unit variant is its name; any other is
            // a one-entry map from the name to its payload.
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    let tag = item.key(vn);
                    let tagged = |payload: String| {
                        format!("__s.map_begin(1); __s.key({tag:?}); {payload} __s.map_end();")
                    };
                    match &v.fields {
                        VariantFields::Unit => format!("{name}::{vn} => {{ __s.str({tag:?}); }}"),
                        VariantFields::Tuple(1) => format!(
                            "{name}::{vn}(__f0) => {{ {} }}",
                            tagged("::serde::Serialize::serialize(__f0, __s);".to_string())
                        ),
                        VariantFields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                            format!(
                                "{name}::{vn}({}) => {{ {} }}",
                                binds.join(", "),
                                tagged(emit_seq(*n, |i| format!("__f{i}")))
                            )
                        }
                        VariantFields::Named(fields) => {
                            let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            format!(
                                "{name}::{vn} {{ {} }} => {{ {} }}",
                                binds.join(", "),
                                tagged(emit_map(item, fields, str::to_string))
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
         fn to_value(&self) -> ::serde::Value {{ ::serde::build_value(self) }} \
         fn serialize<__S: ::serde::Serializer + ?::std::marker::Sized>(&self, __s: &mut __S) {{ {body} }} }}"
    )
}

/// Reads `fields` from the map `value` through one `MapReader` with
/// error context `ctx`, and builds `ctor { .. }` from them.
fn read_map(item: &Item, ctx: &str, fields: &[Field], ctor: &str, value: &str) -> String {
    let keys = item.key_list(fields.iter().map(|f| f.name.as_str()));
    let reader = if item.attrs.deny_unknown_fields {
        format!("::serde::MapReader::strict({ctx:?}, {keys}, {value})?")
    } else {
        format!("::serde::MapReader::new({ctx:?}, {value})?")
    };
    // Real serde's container `default` fills every absent field from
    // the container's default value (structs only).
    let container_default = match (&item.kind, &item.attrs.default) {
        (ItemKind::NamedStruct(_), Some(None)) => {
            "let __d: Self = ::std::default::Default::default();".to_string()
        }
        (ItemKind::NamedStruct(_), Some(Some(path))) => format!("let __d: Self = {path}();"),
        _ => String::new(),
    };
    let inits: String = fields
        .iter()
        .map(|f| {
            let (name, key) = (&f.name, item.key(&f.name));
            let de = f.attrs.deserializer();
            let read = format!("__r.read({key:?}, {de})?");
            let expr = match &f.attrs.default {
                Some(None) => format!("{read}.unwrap_or_default()"),
                Some(Some(path)) => format!("{read}.unwrap_or_else({path})"),
                None if !container_default.is_empty() => format!("{read}.unwrap_or(__d.{name})"),
                None if f.attrs.with.is_none() && f.attrs.deserialize_with.is_none() => {
                    format!("__r.req({key:?})?")
                }
                None => format!("__r.req_with({key:?}, {de})?"),
            };
            format!("{name}: {expr},")
        })
        .collect();
    format!(
        "let mut __r = {reader}; {container_default} \
         ::std::result::Result::Ok({ctor} {{ {inits} }})"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let ctx = item.ctx();
    let body = match &item.kind {
        ItemKind::NamedStruct(fields) => read_map(item, ctx, fields, name, "__v"),
        ItemKind::TupleStruct(1) if item.attrs.transparent => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))")
        }
        ItemKind::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&__s[{i}])?"))
                .collect();
            format!(
                "let __s = ::serde::expect_seq(__v, {ctx:?}, {n})?; \
                 ::std::result::Result::Ok({name}({}))",
                elems.join(", ")
            )
        }
        ItemKind::UnitStruct => format!("::std::result::Result::Ok({name})"),
        ItemKind::Enum(variants) => {
            let all = item.key_list(variants.iter().map(|v| v.name.as_str()));
            let unknown = format!(
                "__other => ::std::result::Result::Err(::serde::unknown_variant({ctx:?}, __other, {all})),"
            );
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vn = &v.name;
                let tag = item.key(vn);
                let vctx = format!("{ctx}.{tag}");
                match &v.fields {
                    VariantFields::Unit => unit_arms.push_str(&format!(
                        "{tag:?} => ::std::result::Result::Ok({name}::{vn}),"
                    )),
                    VariantFields::Tuple(1) => data_arms.push_str(&format!(
                        "{tag:?} => ::std::result::Result::Ok({name}::{vn}({}(__val).map_err(\
                         |__e| ::serde::Error::msg(::std::format!(\"{vctx}: {{__e}}\")))?)),",
                        v.attrs.deserializer()
                    )),
                    VariantFields::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&__s[{i}])?"))
                            .collect();
                        data_arms.push_str(&format!(
                            "{tag:?} => {{ let __s = ::serde::expect_seq(__val, {vctx:?}, {n})?; \
                             ::std::result::Result::Ok({name}::{vn}({})) }}",
                            elems.join(", ")
                        ));
                    }
                    VariantFields::Named(fields) => data_arms.push_str(&format!(
                        "{tag:?} => {{ {} }}",
                        read_map(item, &vctx, fields, &format!("{name}::{vn}"), "__val")
                    )),
                }
            }
            format!(
                "match __v {{ \
                 ::serde::Value::Str(__s) => match __s.as_str() {{ {unit_arms} {unknown} }}, \
                 ::serde::Value::Map(__m) if __m.len() == 1 => {{ \
                   let (__tag, __val) = &__m[0]; \
                   match __tag.as_str() {{ {data_arms} {unknown} }} \
                 }}, \
                 __other => ::std::result::Result::Err(::serde::expected_variant({ctx:?}, __other)), \
                 }}"
            )
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Deserialize for {name} {{ \
         fn from_value(__v: &::serde::Value) \
         -> ::std::result::Result<Self, ::serde::Error> {{ {body} }} }}"
    )
}

/// Derives `serde::Serialize`: the item emits its fields straight into
/// the sink, and `to_value` collects that emission into a tree.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive: generated Serialize impl failed to parse")
}

/// Derives `serde::Deserialize` by rebuilding the item from a `Value` tree.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive: generated Deserialize impl failed to parse")
}

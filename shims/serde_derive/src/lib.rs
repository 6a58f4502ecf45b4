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
//! ```
//! use serde::{Serialize, Value};
//!
//! #[derive(Serialize)]
//! struct Point {
//!     x: u64,
//!     y: u64,
//! }
//!
//! let v = Point { x: 1, y: 2 }.to_value();
//! assert_eq!(v.get("y"), Some(&Value::U64(2)));
//! ```

#![warn(missing_docs)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Item {
    name: String,
    transparent: bool,
    kind: ItemKind,
}

#[derive(Debug)]
enum ItemKind {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    fields: VariantFields,
}

#[derive(Debug)]
enum VariantFields {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

/// `true` if the attribute group (the `[...]` contents) is
/// `serde(transparent)`.
fn is_serde_transparent(group: &proc_macro::Group) -> bool {
    let mut it = group.stream().into_iter();
    match (it.next(), it.next()) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) if id.to_string() == "serde" => {
            args.stream()
                .into_iter()
                .any(|t| matches!(t, TokenTree::Ident(i) if i.to_string() == "transparent"))
        }
        _ => false,
    }
}

/// Advances past a `#[...]` attribute starting at `i`; returns whether
/// it was `#[serde(transparent)]`.
fn skip_attr(tokens: &[TokenTree], i: &mut usize) -> bool {
    debug_assert!(matches!(&tokens[*i], TokenTree::Punct(p) if p.as_char() == '#'));
    *i += 1;
    if let Some(TokenTree::Group(g)) = tokens.get(*i) {
        let transparent = is_serde_transparent(g);
        *i += 1;
        transparent
    } else {
        false
    }
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

/// Parses the named fields of a brace-delimited body, returning field
/// names in declaration order.
fn parse_named_fields(group: &proc_macro::Group) -> Vec<String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            skip_attr(&tokens, &mut i);
        }
        skip_vis(&tokens, &mut i);
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            break;
        };
        fields.push(name.to_string());
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
fn count_tuple_fields(group: &proc_macro::Group) -> usize {
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

fn parse_variants(group: &proc_macro::Group) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            skip_attr(&tokens, &mut i);
        }
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
        variants.push(Variant { name, fields });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut transparent = false;
    let keyword = loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                transparent |= skip_attr(&tokens, &mut i);
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
    Item {
        name,
        transparent,
        kind,
    }
}

// ---- code generation (as source strings, parsed back into tokens) ----

/// `__s.key("f"); <serialize expr>;` for each named field, where `expr`
/// maps a field name to the expression naming its value.
fn emit_entries(fields: &[String], expr: impl Fn(&str) -> String) -> String {
    fields
        .iter()
        .map(|f| {
            format!(
                "__s.key({f:?}); ::serde::Serialize::serialize({}, __s);",
                expr(f)
            )
        })
        .collect()
}

/// Opens a `len`-entry map (or sequence), emits `body`, and closes it.
fn emit_block(map: bool, len: usize, body: &str) -> String {
    let kind = if map { "map" } else { "seq" };
    format!("__s.{kind}_begin({len}); {body} __s.{kind}_end();")
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::NamedStruct(fields) => emit_block(
            true,
            fields.len(),
            &emit_entries(fields, |f| format!("&self.{f}")),
        ),
        ItemKind::TupleStruct(1) if item.transparent => {
            "::serde::Serialize::serialize(&self.0, __s);".to_string()
        }
        ItemKind::TupleStruct(n) => {
            let elems: String = (0..*n)
                .map(|i| format!("::serde::Serialize::serialize(&self.{i}, __s);"))
                .collect();
            emit_block(false, *n, &elems)
        }
        ItemKind::UnitStruct => "__s.null();".to_string(),
        ItemKind::Enum(variants) => {
            // Externally tagged: a unit variant is its name; any other is
            // a one-entry map from the name to its payload.
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    let tagged =
                        |payload: &str| emit_block(true, 1, &format!("__s.key({vn:?}); {payload}"));
                    match &v.fields {
                        VariantFields::Unit => format!("{name}::{vn} => {{ __s.str({vn:?}); }}"),
                        VariantFields::Tuple(1) => format!(
                            "{name}::{vn}(__f0) => {{ {} }}",
                            tagged("::serde::Serialize::serialize(__f0, __s);")
                        ),
                        VariantFields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                            let elems: String = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::serialize({b}, __s);"))
                                .collect();
                            format!(
                                "{name}::{vn}({}) => {{ {} }}",
                                binds.join(", "),
                                tagged(&emit_block(false, *n, &elems))
                            )
                        }
                        VariantFields::Named(fields) => format!(
                            "{name}::{vn} {{ {} }} => {{ {} }}",
                            fields.join(", "),
                            tagged(&emit_block(
                                true,
                                fields.len(),
                                &emit_entries(fields, |f| f.to_string())
                            ))
                        ),
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

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::NamedStruct(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{f}: ::serde::field(__m, {name:?}, {f:?})?,"))
                .collect();
            format!(
                "let __m = ::serde::expect_map(__v, {name:?})?; \
                 ::std::result::Result::Ok({name} {{ {} }})",
                inits.join(" ")
            )
        }
        ItemKind::TupleStruct(1) if item.transparent => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))")
        }
        ItemKind::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&__s[{i}])?"))
                .collect();
            format!(
                "let __s = ::serde::expect_seq(__v, {name:?}, {n})?; \
                 ::std::result::Result::Ok({name}({}))",
                elems.join(", ")
            )
        }
        ItemKind::UnitStruct => format!("::std::result::Result::Ok({name})"),
        ItemKind::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.fields, VariantFields::Unit))
                .map(|v| {
                    let vn = &v.name;
                    format!("{vn:?} => ::std::result::Result::Ok({name}::{vn}),")
                })
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vn = &v.name;
                    match &v.fields {
                        VariantFields::Unit => None,
                        VariantFields::Tuple(1) => Some(format!(
                            "{vn:?} => ::std::result::Result::Ok({name}::{vn}(\
                             ::serde::Deserialize::from_value(__val)?)),"
                        )),
                        VariantFields::Tuple(n) => {
                            let elems: Vec<String> = (0..*n)
                                .map(|i| format!("::serde::Deserialize::from_value(&__s[{i}])?"))
                                .collect();
                            Some(format!(
                                "{vn:?} => {{ let __s = ::serde::expect_seq(\
                                 __val, \"{name}::{vn}\", {n})?; \
                                 ::std::result::Result::Ok({name}::{vn}({})) }}",
                                elems.join(", ")
                            ))
                        }
                        VariantFields::Named(fields) => {
                            let inits: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!("{f}: ::serde::field(__m, \"{name}::{vn}\", {f:?})?,")
                                })
                                .collect();
                            Some(format!(
                                "{vn:?} => {{ let __m = ::serde::expect_map(\
                                 __val, \"{name}::{vn}\")?; \
                                 ::std::result::Result::Ok({name}::{vn} {{ {} }}) }}",
                                inits.join(" ")
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "match __v {{ \
                 ::serde::Value::Str(__s) => match __s.as_str() {{ \
                   {} \
                   __other => ::std::result::Result::Err(::serde::Error::msg(\
                     ::std::format!(\"unknown variant `{{__other}}` for {name}\"))) \
                 }}, \
                 ::serde::Value::Map(__m) if __m.len() == 1 => {{ \
                   let (__tag, __val) = &__m[0]; \
                   match __tag.as_str() {{ \
                     {} \
                     __other => ::std::result::Result::Err(::serde::Error::msg(\
                       ::std::format!(\"unknown variant `{{__other}}` for {name}\"))) \
                   }} \
                 }}, \
                 __other => ::std::result::Result::Err(::serde::Error::msg(\
                   ::std::format!(\"expected variant of {name}, found {{}}\", __other.kind()))) \
                 }}",
                unit_arms.join(" "),
                data_arms.join(" ")
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

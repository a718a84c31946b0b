//! Field codecs and the table macros behind [`crate::protocol`].
//!
//! `protocol.rs` is the wire spec: tables whose rows name a variant,
//! its tag byte and its fields in wire order. This module is how a row
//! becomes code — `field!` maps a codec name to its Rust type, encoder,
//! decoder and property-test strategy; `wire_enum!` / `wire_struct!`
//! turn a table into the type plus its private `put` / `get` / `arb`;
//! `messages!` adds the public `encode` / `decode` of a frame payload
//! and, for requests, `label` / `is_data_op`.
//!
//! The macros name their helpers unqualified, so an expansion site
//! needs `use crate::codec::*;` and `scavenger_util::Result` in scope.

#[cfg(test)]
pub(crate) use proptest::prelude::{any, Just, Strategy};
pub(crate) use scavenger_util::coding::{
    get_fixed64, get_length_prefixed_slice, get_varint32, get_varint64, put_fixed64,
    put_length_prefixed_slice, put_varint32, put_varint64,
};
use scavenger_util::{Error, Result};

pub(crate) fn perr(msg: impl Into<String>) -> Error {
    Error::InvalidArgument(format!("protocol: {}", msg.into()))
}

pub(crate) fn get_u8(src: &mut &[u8]) -> Result<u8> {
    let (&v, rest) = src.split_first().ok_or_else(|| perr("truncated body"))?;
    *src = rest;
    Ok(v)
}

pub(crate) fn get_bool(src: &mut &[u8]) -> Result<bool> {
    match get_u8(src)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(perr(format!("bad bool tag {t}"))),
    }
}

pub(crate) fn put_opt<T>(dst: &mut Vec<u8>, v: &Option<T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        None => dst.push(0),
        Some(v) => {
            dst.push(1);
            put(dst, v);
        }
    }
}

pub(crate) fn get_opt<T>(
    src: &mut &[u8],
    get: impl FnOnce(&mut &[u8]) -> Result<T>,
) -> Result<Option<T>> {
    match get_u8(src)? {
        0 => Ok(None),
        1 => get(src).map(Some),
        t => Err(perr(format!("bad option tag {t}"))),
    }
}

/// The field codecs — every way a value is laid out inside a body.
/// `field!(ty c)` is the Rust type codec `c` carries, `field!(put c dst
/// v)` appends `*v` to `dst`, `field!(get c src)` consumes one value
/// from `src` (inside a function returning [`Result`]), and
/// `field!(arb c)` is the property-test strategy.
macro_rules! field {
    (ty fixed64) => { u64 };                // 8 bytes little-endian (server-issued ids)
    (ty var32) => { u32 };                  // LEB128 varint
    (ty var64) => { u64 };                  // LEB128 varint (counters, sequence numbers)
    (ty bool) => { bool };                  // one byte, 0 or 1; anything else is an error
    (ty blob) => { Vec<u8> };               // var32 length, then the bytes
    (ty opt_blob) => { Option<Vec<u8>> };   // tag byte 0, or 1 then a blob
    (ty opt_u64) => { Option<u64> };        // tag byte 0, or 1 then a fixed64
    (ty utf8) => { String };                // a blob that must be valid UTF-8
    (ty [$e:tt]) => { Vec<field!(ty $e)> }; // var32 count, then that many `e`
    (ty ($a:tt, $b:tt)) => { (field!(ty $a), field!(ty $b)) }; // `a` then `b`
    (ty $body:ident) => { $body };          // a nested body, itself declared by a table

    (put fixed64 $dst:ident $v:expr) => { put_fixed64($dst, *$v) };
    (put var32 $dst:ident $v:expr) => { put_varint32($dst, *$v) };
    (put var64 $dst:ident $v:expr) => { put_varint64($dst, *$v) };
    (put bool $dst:ident $v:expr) => { $dst.push(u8::from(*$v)) };
    (put blob $dst:ident $v:expr) => { put_length_prefixed_slice($dst, $v) };
    (put opt_blob $dst:ident $v:expr) => { put_opt($dst, $v, |d, b| field!(put blob d b)) };
    (put opt_u64 $dst:ident $v:expr) => { put_opt($dst, $v, |d, n| field!(put fixed64 d n)) };
    (put utf8 $dst:ident $v:expr) => { put_length_prefixed_slice($dst, $v.as_bytes()) };
    (put [$e:tt] $dst:ident $v:expr) => {{
        put_varint32($dst, $v.len() as u32);
        for item in $v.iter() {
            field!(put $e $dst item);
        }
    }};
    (put ($a:tt, $b:tt) $dst:ident $v:expr) => {{
        field!(put $a $dst &$v.0);
        field!(put $b $dst &$v.1);
    }};
    (put $body:ident $dst:ident $v:expr) => { $v.put($dst) };

    (get fixed64 $src:ident) => { get_fixed64($src)? };
    (get var32 $src:ident) => { get_varint32($src)? };
    (get var64 $src:ident) => { get_varint64($src)? };
    (get bool $src:ident) => { get_bool($src)? };
    (get blob $src:ident) => { get_length_prefixed_slice($src)?.to_vec() };
    (get opt_blob $src:ident) => { get_opt($src, |s| Ok(field!(get blob s)))? };
    (get opt_u64 $src:ident) => { get_opt($src, |s| Ok(field!(get fixed64 s)))? };
    (get utf8 $src:ident) => {
        String::from_utf8(field!(get blob $src)).map_err(|_| perr("text is not utf-8"))?
    };
    (get [$e:tt] $src:ident) => {{
        let n = get_varint32($src)?;
        // Cap pre-allocation by what the body could possibly hold (one
        // byte per element minimum) — a lying count must not drive a
        // huge reserve.
        let mut list = Vec::with_capacity((n as usize).min($src.len()));
        for _ in 0..n {
            list.push(field!(get $e $src));
        }
        list
    }};
    (get ($a:tt, $b:tt) $src:ident) => { (field!(get $a $src), field!(get $b $src)) };
    (get $body:ident $src:ident) => { $body::get($src)? };

    (arb fixed64) => { any::<u64>() };
    (arb var32) => { any::<u32>() };
    (arb var64) => { any::<u64>() };
    (arb bool) => { any::<bool>() };
    (arb blob) => { proptest::collection::vec(any::<u8>(), 0..64) };
    (arb opt_blob) => { proptest::option::of(field!(arb blob)) };
    (arb opt_u64) => { proptest::option::of(any::<u64>()) };
    (arb utf8) => { field!(arb blob).prop_map(|b| String::from_utf8_lossy(&b).into_owned()) };
    (arb [$e:tt]) => { proptest::collection::vec(field!(arb $e), 0..8) };
    (arb ($a:tt, $b:tt)) => { (field!(arb $a), field!(arb $b)) };
    (arb $body:ident) => { $body::arb() };
}

/// A tagged body: `tag:u8`, then the matching row's fields in row
/// order. Generates the enum (deriving `Debug, Clone, PartialEq, Eq`)
/// plus its private `put` / `get` / `arb`. A row is `Variant = tag`,
/// optionally followed by `{ field: codec, .. }` or `(name: codec)`.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident ($what:literal) {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal
                $({ $( $(#[$fmeta:meta])* $field:ident: $codec:tt ),+ $(,)? })?
                $(( $tfield:ident: $tcodec:tt ))?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant
                $({ $( $(#[$fmeta])* $field: field!(ty $codec) ),+ })?
                $(( field!(ty $tcodec) ))?
            ),+
        }

        impl $name {
            #[cfg(test)]
            const TAGS: &'static [u8] = &[$($tag),+];

            fn put(&self, dst: &mut Vec<u8>) {
                match self {
                    $($name::$variant $({ $($field),+ })? $(( $tfield ))? => {
                        dst.push($tag);
                        $($( field!(put $codec dst $field); )+)?
                        $( field!(put $tcodec dst $tfield); )?
                    })+
                }
            }

            fn get(src: &mut &[u8]) -> Result<$name> {
                Ok(match get_u8(src)? {
                    $($tag => $name::$variant
                        $({ $( $field: field!(get $codec src) ),+ })?
                        $(( field!(get $tcodec src) ))?,)+
                    t => return Err(perr(format!(concat!("unknown ", $what, " {:#04x}"), t))),
                })
            }

            #[cfg(test)]
            fn arb() -> impl Strategy<Value = $name> {
                proptest::prop_oneof![$(
                    wire_enum!(@arb $name::$variant $({ $($field: $codec),+ })? $(( $tcodec ))?)
                ),+]
            }
        }
    };
    (@arb $name:ident::$variant:ident) => { Just($name::$variant) };
    (@arb $name:ident::$variant:ident { $($field:ident: $codec:tt),+ }) => {
        ($(field!(arb $codec),)+).prop_map(|($($field,)+)| $name::$variant { $($field),+ })
    };
    (@arb $name:ident::$variant:ident ($codec:tt)) => {
        field!(arb $codec).prop_map($name::$variant)
    };
}

/// An untagged body: the fields in row order.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident { $( $(#[$fmeta:meta])* pub $field:ident: $codec:tt ),+ $(,)? }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct $name { $( $(#[$fmeta])* pub $field: field!(ty $codec) ),+ }

        impl $name {
            fn put(&self, dst: &mut Vec<u8>) {
                $( field!(put $codec dst &self.$field); )+
            }

            fn get(src: &mut &[u8]) -> Result<$name> {
                Ok($name { $( $field: field!(get $codec src) ),+ })
            }

            #[cfg(test)]
            fn arb() -> impl Strategy<Value = $name> {
                ($(field!(arb $codec),)+).prop_map(|($($field,)+)| $name { $($field),+ })
            }
        }
    };
}

/// One message table: a `wire_enum!` whose tag is the opcode, plus
/// `encode` / `decode` of a whole frame payload. Request rows also
/// carry `"label", class` between the opcode and the fields — the
/// metrics label and the admission class (`data` ops pay rate-limit
/// tokens; `control` ops stay reachable on a saturated server).
macro_rules! messages {
    (
        $(#[$meta:meta])*
        pub enum $name:ident ($what:literal) {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $op:literal, $label:literal, $class:ident $({ $($fields:tt)+ })?
            ),+ $(,)?
        }
    ) => {
        messages! {
            $(#[$meta])*
            pub enum $name ($what) { $( $(#[$vmeta])* $variant = $op $({ $($fields)+ })? ),+ }
        }

        impl $name {
            #[cfg(test)]
            const LABELS: &'static [&'static str] = &[$($label),+];

            /// Short label for logging/metrics.
            pub fn label(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => $label ),+
                }
            }

            /// True if this op consumes rate-limit tokens (the data
            /// plane; control and observability ops stay reachable on a
            /// saturated server).
            pub fn is_data_op(&self) -> bool {
                match self {
                    $( $name::$variant { .. } => messages!(@$class) ),+
                }
            }
        }
    };
    (@data) => { true };
    (@control) => { false };
    ($(#[$meta:meta])* pub enum $name:ident ($what:literal) { $($rows:tt)+ }) => {
        wire_enum! { $(#[$meta])* pub enum $name ($what) { $($rows)+ } }

        impl $name {
            /// Encode into a frame payload (opcode + body).
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::new();
                self.put(&mut out);
                out
            }

            /// Decode a frame payload. Unknown opcodes, truncated
            /// bodies, and trailing bytes are all
            /// [`WireCode::Protocol`]-class errors.
            pub fn decode(payload: &[u8]) -> Result<$name> {
                let mut src = payload;
                let msg = $name::get(&mut src)?;
                if !src.is_empty() {
                    return Err(perr(format!("{} trailing bytes", src.len())));
                }
                Ok(msg)
            }
        }
    };
}

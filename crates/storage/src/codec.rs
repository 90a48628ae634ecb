//! A compact, dependency-free serialization codec for storage types.
//!
//! The persistent verdict cache (`ratest_grader::store`) needs to write
//! counterexample sub-instances — databases whose tuples keep their original
//! [`TupleId`]s — to disk and read them back *losslessly* on any platform.
//! `serde_json` is not available offline, and the vendored `serde` stand-in
//! has no self-describing format, so this module defines one: a
//! whitespace-separated token stream with length-prefixed strings and
//! bit-exact floats.
//!
//! Design rules:
//!
//! * **Platform-stable**: integers are decimal, floats are the hex of their
//!   IEEE-754 bit pattern (`Value::double` already forbids NaN and
//!   normalises `-0.0`, so bit equality equals value equality), strings are
//!   raw UTF-8 with a byte-length prefix. No endianness, no hash orders.
//! * **Lossless**: decoding an encoded value reproduces it exactly —
//!   including tuple identifiers, which [`Relation::insert`] would otherwise
//!   reassign. Decoders rebuild the derived indexes (name maps, dedup sets).
//! * **Total**: decoders never panic on malformed input; every failure is a
//!   [`CodecError`], so a caller reading an on-disk cache can skip a corrupt
//!   record and keep the rest.
//!
//! The format is *not* self-versioning; the file formats built on top of it
//! (the verdict cache) carry their own version header.

use crate::constraints::{Constraint, ConstraintSet};
use crate::database::Database;
use crate::relation::Relation;
use crate::schema::{Column, DataType, Schema};
use crate::subinstance::TupleSelection;
use crate::tuple::{Tuple, TupleId};
use crate::value::Value;
use std::fmt;

/// A decoding failure: what was expected and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What the decoder was trying to read.
    pub expected: String,
    /// Byte offset into the token stream where the failure occurred.
    pub offset: usize,
}

impl CodecError {
    fn new(expected: impl Into<String>, offset: usize) -> CodecError {
        CodecError {
            expected: expected.into(),
            offset,
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.offset)
    }
}

impl std::error::Error for CodecError {}

/// Result alias for decode operations.
pub type DecodeResult<T> = std::result::Result<T, CodecError>;

/// Builds a token stream. Tokens are separated by single spaces.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: String,
}

impl Encoder {
    /// Fresh empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(' ');
        }
    }

    /// Append an unsigned integer token.
    pub fn u(&mut self, v: u64) -> &mut Self {
        self.sep();
        self.buf.push_str(&v.to_string());
        self
    }

    /// Append a signed integer token.
    pub fn i(&mut self, v: i64) -> &mut Self {
        self.sep();
        self.buf.push_str(&v.to_string());
        self
    }

    /// Append a float as the hex of its bit pattern (lossless).
    pub fn f(&mut self, v: f64) -> &mut Self {
        self.sep();
        self.buf.push_str(&format!("f{:016x}", v.to_bits()));
        self
    }

    /// Append a bare word token (must not contain whitespace).
    pub fn tag(&mut self, word: &str) -> &mut Self {
        debug_assert!(
            !word.is_empty() && !word.contains(char::is_whitespace),
            "tags are non-empty single words"
        );
        self.sep();
        self.buf.push_str(word);
        self
    }

    /// Append a length-prefixed string token (`<len>:<raw bytes>`). The raw
    /// bytes may contain spaces; the decoder consumes exactly `len` bytes.
    pub fn s(&mut self, v: &str) -> &mut Self {
        self.sep();
        self.buf.push_str(&v.len().to_string());
        self.buf.push(':');
        self.buf.push_str(v);
        self
    }

    /// The encoded token stream.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Reads a token stream produced by [`Encoder`].
#[derive(Debug)]
pub struct Decoder<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decode from the start of `input`.
    pub fn new(input: &'a str) -> Decoder<'a> {
        Decoder { input, pos: 0 }
    }

    fn skip_ws(&mut self) {
        let rest = &self.input[self.pos..];
        let trimmed = rest.trim_start();
        self.pos += rest.len() - trimmed.len();
    }

    fn word(&mut self, expected: &str) -> DecodeResult<&'a str> {
        self.skip_ws();
        let rest = &self.input[self.pos..];
        if rest.is_empty() {
            return Err(CodecError::new(expected, self.pos));
        }
        let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
        let (word, _) = rest.split_at(end);
        self.pos += end;
        Ok(word)
    }

    /// Read an unsigned integer token.
    pub fn u(&mut self) -> DecodeResult<u64> {
        let at = self.pos;
        self.word("unsigned integer")?
            .parse()
            .map_err(|_| CodecError::new("unsigned integer", at))
    }

    /// Read a `usize` token.
    pub fn usize(&mut self) -> DecodeResult<usize> {
        let at = self.pos;
        usize::try_from(self.u()?).map_err(|_| CodecError::new("usize", at))
    }

    /// Read a signed integer token.
    pub fn i(&mut self) -> DecodeResult<i64> {
        let at = self.pos;
        self.word("signed integer")?
            .parse()
            .map_err(|_| CodecError::new("signed integer", at))
    }

    /// Read a float token (bit-pattern hex).
    pub fn f(&mut self) -> DecodeResult<f64> {
        let at = self.pos;
        let w = self.word("float")?;
        let hex = w
            .strip_prefix('f')
            .ok_or_else(|| CodecError::new("float (f-prefixed hex)", at))?;
        let bits = u64::from_str_radix(hex, 16).map_err(|_| CodecError::new("float bits", at))?;
        Ok(f64::from_bits(bits))
    }

    /// Read a bare word token.
    pub fn tag(&mut self) -> DecodeResult<&'a str> {
        self.word("tag")
    }

    /// Read a bare word and check it against an expected spelling.
    pub fn expect(&mut self, expected: &str) -> DecodeResult<()> {
        let at = self.pos;
        let w = self.word(expected)?;
        if w == expected {
            Ok(())
        } else {
            Err(CodecError::new(format!("`{expected}`, found `{w}`"), at))
        }
    }

    /// Read a length-prefixed string token.
    pub fn s(&mut self) -> DecodeResult<String> {
        self.skip_ws();
        let at = self.pos;
        let rest = &self.input[self.pos..];
        let colon = rest
            .find(':')
            .ok_or_else(|| CodecError::new("string length prefix", at))?;
        let len: usize = rest[..colon]
            .parse()
            .map_err(|_| CodecError::new("string length prefix", at))?;
        let start = colon + 1;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= rest.len())
            .ok_or_else(|| CodecError::new("string body", at))?;
        if !rest.is_char_boundary(start) || !rest.is_char_boundary(end) {
            return Err(CodecError::new("string body (char boundary)", at));
        }
        self.pos += end;
        Ok(rest[start..end].to_owned())
    }

    /// Check that the whole input has been consumed.
    pub fn done(&mut self) -> DecodeResult<()> {
        self.skip_ws();
        if self.pos == self.input.len() {
            Ok(())
        } else {
            Err(CodecError::new("end of input", self.pos))
        }
    }
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

/// Encode a [`Value`].
pub fn encode_value(v: &Value, e: &mut Encoder) {
    match v {
        Value::Null => {
            e.tag("null");
        }
        Value::Bool(b) => {
            e.tag("bool").u(*b as u64);
        }
        Value::Int(i) => {
            e.tag("int").i(*i);
        }
        Value::Double(f) => {
            e.tag("dbl").f(*f);
        }
        Value::Text(s) => {
            e.tag("txt").s(s);
        }
        Value::Date(d) => {
            e.tag("date").i(*d as i64);
        }
    }
}

/// Decode a [`Value`].
pub fn decode_value(d: &mut Decoder) -> DecodeResult<Value> {
    let at = d.pos;
    Ok(match d.tag()? {
        "null" => Value::Null,
        "bool" => Value::Bool(d.u()? != 0),
        "int" => Value::Int(d.i()?),
        "dbl" => {
            let f = d.f()?;
            if f.is_nan() {
                return Err(CodecError::new("non-NaN double", at));
            }
            Value::Double(f)
        }
        "txt" => Value::Text(d.s()?),
        "date" => {
            let days = d.i()?;
            let days = i32::try_from(days).map_err(|_| CodecError::new("date in i32 range", at))?;
            Value::Date(days)
        }
        other => return Err(CodecError::new(format!("value tag, found `{other}`"), at)),
    })
}

// ---------------------------------------------------------------------------
// Schemas
// ---------------------------------------------------------------------------

fn data_type_tag(t: DataType) -> &'static str {
    match t {
        DataType::Bool => "Bool",
        DataType::Int => "Int",
        DataType::Double => "Double",
        DataType::Text => "Text",
        DataType::Date => "Date",
    }
}

fn decode_data_type(d: &mut Decoder) -> DecodeResult<DataType> {
    let at = d.pos;
    Ok(match d.tag()? {
        "Bool" => DataType::Bool,
        "Int" => DataType::Int,
        "Double" => DataType::Double,
        "Text" => DataType::Text,
        "Date" => DataType::Date,
        other => return Err(CodecError::new(format!("data type, found `{other}`"), at)),
    })
}

/// Encode a [`Schema`].
pub fn encode_schema(s: &Schema, e: &mut Encoder) {
    e.tag("schema").u(s.arity() as u64);
    for c in s.columns() {
        e.s(&c.name)
            .tag(data_type_tag(c.data_type))
            .u(c.nullable as u64);
    }
}

/// Decode a [`Schema`].
pub fn decode_schema(d: &mut Decoder) -> DecodeResult<Schema> {
    d.expect("schema")?;
    let n = d.usize()?;
    let mut columns = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = d.s()?;
        let data_type = decode_data_type(d)?;
        let nullable = d.u()? != 0;
        columns.push(if nullable {
            Column::nullable(name, data_type)
        } else {
            Column::new(name, data_type)
        });
    }
    Ok(Schema::from_columns(columns))
}

// ---------------------------------------------------------------------------
// Constraints
// ---------------------------------------------------------------------------

fn encode_string_list(items: &[String], e: &mut Encoder) {
    e.u(items.len() as u64);
    for s in items {
        e.s(s);
    }
}

fn decode_string_list(d: &mut Decoder) -> DecodeResult<Vec<String>> {
    let n = d.usize()?;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(d.s()?);
    }
    Ok(out)
}

/// Encode a [`ConstraintSet`].
pub fn encode_constraints(cs: &ConstraintSet, e: &mut Encoder) {
    let all: Vec<&Constraint> = cs.iter().collect();
    e.tag("gamma").u(all.len() as u64);
    for c in all {
        match c {
            Constraint::Key(k) => {
                e.tag("key").s(&k.relation);
                encode_string_list(&k.columns, e);
            }
            Constraint::NotNull(n) => {
                e.tag("notnull").s(&n.relation).s(&n.column);
            }
            Constraint::FunctionalDependency(fd) => {
                e.tag("fd").s(&fd.relation);
                encode_string_list(&fd.determinants, e);
                encode_string_list(&fd.dependents, e);
            }
            Constraint::ForeignKey(fk) => {
                e.tag("fk").s(&fk.child);
                encode_string_list(&fk.child_columns, e);
                e.s(&fk.parent);
                encode_string_list(&fk.parent_columns, e);
            }
        }
    }
}

/// Decode a [`ConstraintSet`].
pub fn decode_constraints(d: &mut Decoder) -> DecodeResult<ConstraintSet> {
    d.expect("gamma")?;
    let n = d.usize()?;
    let mut cs = ConstraintSet::new();
    for _ in 0..n {
        let at = d.pos;
        match d.tag()? {
            "key" => {
                let relation = d.s()?;
                let columns = decode_string_list(d)?;
                cs.add(Constraint::Key(crate::constraints::Key {
                    relation,
                    columns,
                }));
            }
            "notnull" => {
                let relation = d.s()?;
                let column = d.s()?;
                cs.add(Constraint::NotNull(crate::constraints::NotNull {
                    relation,
                    column,
                }));
            }
            "fd" => {
                let relation = d.s()?;
                let determinants = decode_string_list(d)?;
                let dependents = decode_string_list(d)?;
                cs.add(Constraint::FunctionalDependency(
                    crate::constraints::FunctionalDependency {
                        relation,
                        determinants,
                        dependents,
                    },
                ));
            }
            "fk" => {
                let child = d.s()?;
                let child_columns = decode_string_list(d)?;
                let parent = d.s()?;
                let parent_columns = decode_string_list(d)?;
                cs.add(Constraint::ForeignKey(crate::constraints::ForeignKey {
                    child,
                    child_columns,
                    parent,
                    parent_columns,
                }));
            }
            other => {
                return Err(CodecError::new(
                    format!("constraint tag, found `{other}`"),
                    at,
                ))
            }
        }
    }
    Ok(cs)
}

// ---------------------------------------------------------------------------
// Relations and databases
// ---------------------------------------------------------------------------

/// Encode a [`Relation`], including its relation index and the (possibly
/// non-contiguous) tuple identifiers of a sub-instance.
pub fn encode_relation(r: &Relation, e: &mut Encoder) {
    e.tag("rel").s(r.name()).u(r.relation_index() as u64);
    encode_schema(r.schema(), e);
    e.u(r.len() as u64);
    for t in r.iter() {
        match t.id {
            Some(id) => {
                e.u(1).u(id.relation as u64).u(id.row as u64);
            }
            None => {
                e.u(0);
            }
        }
        e.u(t.values.len() as u64);
        for v in &t.values {
            encode_value(v, e);
        }
    }
}

/// Decode a [`Relation`]. Tuple identifiers are restored exactly as encoded
/// (no reassignment), which is what makes counterexample sub-instances
/// round-trip.
pub fn decode_relation(d: &mut Decoder) -> DecodeResult<Relation> {
    d.expect("rel")?;
    let name = d.s()?;
    let at = d.pos;
    let index =
        u32::try_from(d.u()?).map_err(|_| CodecError::new("relation index in u32 range", at))?;
    let schema = decode_schema(d)?;
    let nrows = d.usize()?;
    let mut rows = Vec::with_capacity(nrows.min(65_536));
    for _ in 0..nrows {
        let id = match d.u()? {
            0 => None,
            _ => {
                let at = d.pos;
                let rel =
                    u32::try_from(d.u()?).map_err(|_| CodecError::new("tuple id relation", at))?;
                let row = u32::try_from(d.u()?).map_err(|_| CodecError::new("tuple id row", at))?;
                Some(TupleId::new(rel, row))
            }
        };
        let nvals = d.usize()?;
        let mut values = Vec::with_capacity(nvals.min(256));
        for _ in 0..nvals {
            values.push(decode_value(d)?);
        }
        rows.push(Tuple { values, id });
    }
    Ok(Relation::from_parts(name, schema, index, rows))
}

/// Encode a [`Database`] (relations in order, plus constraints).
pub fn encode_database(db: &Database, e: &mut Encoder) {
    e.tag("db").s(db.name()).u(db.relation_count() as u64);
    for r in db.relations() {
        encode_relation(r, e);
    }
    encode_constraints(db.constraints(), e);
}

/// Decode a [`Database`]. Each relation builds its dedup index on first use.
pub fn decode_database(d: &mut Decoder) -> DecodeResult<Database> {
    d.expect("db")?;
    let name = d.s()?;
    let n = d.usize()?;
    let mut relations = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        relations.push(decode_relation(d)?);
    }
    let constraints = decode_constraints(d)?;
    Ok(Database::from_parts(name, relations, constraints))
}

/// Encode a [`TupleSelection`].
pub fn encode_selection(sel: &TupleSelection, e: &mut Encoder) {
    e.tag("sel").u(sel.len() as u64);
    for id in sel.iter() {
        e.u(id.relation as u64).u(id.row as u64);
    }
}

/// Decode a [`TupleSelection`].
pub fn decode_selection(d: &mut Decoder) -> DecodeResult<TupleSelection> {
    d.expect("sel")?;
    let n = d.usize()?;
    let mut ids = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        let at = d.pos;
        let rel = u32::try_from(d.u()?).map_err(|_| CodecError::new("selection id", at))?;
        let row = u32::try_from(d.u()?).map_err(|_| CodecError::new("selection id", at))?;
        ids.push(TupleId::new(rel, row));
    }
    Ok(TupleSelection::from_ids(ids))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: Value) {
        let mut e = Encoder::new();
        encode_value(&v, &mut e);
        let s = e.finish();
        let mut d = Decoder::new(&s);
        let back = decode_value(&mut d).unwrap();
        d.done().unwrap();
        assert_eq!(back, v, "{s}");
        // Encoding is canonical: re-encoding the decoded value is identical.
        let mut e2 = Encoder::new();
        encode_value(&back, &mut e2);
        assert_eq!(e2.finish(), s);
    }

    #[test]
    fn values_roundtrip_bit_exactly() {
        roundtrip_value(Value::Null);
        roundtrip_value(Value::Bool(true));
        roundtrip_value(Value::Int(i64::MIN));
        roundtrip_value(Value::double(0.1 + 0.2)); // not representable exactly
        roundtrip_value(Value::double(-1.5e300));
        roundtrip_value(Value::Text("spaces and | pipes\nand newlines".into()));
        roundtrip_value(Value::Text(String::new()));
        roundtrip_value(Value::Text("unicode: Märy 学生".into()));
        roundtrip_value(Value::date(1995, 3, 15));
    }

    #[test]
    fn strings_with_token_lookalikes_roundtrip() {
        // A text value that looks like codec tokens must not confuse the
        // decoder: the length prefix consumes it as raw bytes.
        roundtrip_value(Value::Text("int 42 dbl f00 7:spoofed".into()));
    }

    fn toy_db() -> Database {
        let mut student = Relation::new(
            "Student",
            Schema::new(vec![("name", DataType::Text), ("major", DataType::Text)]),
        );
        student
            .insert_all(vec![
                vec![Value::from("Mary"), Value::from("CS")],
                vec![Value::from("John"), Value::from("ECON")],
                vec![Value::from("Jesse"), Value::from("CS")],
            ])
            .unwrap();
        let mut reg = Relation::new(
            "Registration",
            Schema::new(vec![("name", DataType::Text), ("grade", DataType::Int)]),
        );
        reg.insert_all(vec![
            vec![Value::from("Mary"), Value::Int(100)],
            vec![Value::from("John"), Value::Int(90)],
        ])
        .unwrap();
        let mut db = Database::new("toy");
        db.add_relation(student).unwrap();
        db.add_relation(reg).unwrap();
        db.constraints_mut().add_key("Student", &["name"]);
        db.constraints_mut()
            .add_foreign_key("Registration", &["name"], "Student", &["name"]);
        db
    }

    #[test]
    fn subinstance_databases_roundtrip_with_original_ids() {
        let db = toy_db();
        // Keep rows 0 and 2 of Student, row 1 of Registration: the decoded
        // database must preserve the "holes" in the id space.
        let sub = db.subinstance(|id| {
            (id.relation == 0 && id.row != 1) || (id.relation == 1 && id.row == 0)
        });
        let mut e = Encoder::new();
        encode_database(&sub, &mut e);
        let encoded = e.finish();
        let mut d = Decoder::new(&encoded);
        let back = decode_database(&mut d).unwrap();
        d.done().unwrap();

        assert_eq!(back.name(), sub.name());
        assert_eq!(back.total_tuples(), sub.total_tuples());
        assert!(db.contains_subinstance(&back), "ids must be preserved");
        let ids: Vec<u32> = back
            .relation("Student")
            .unwrap()
            .iter()
            .map(|t| t.id.unwrap().row)
            .collect();
        assert_eq!(ids, vec![0, 2]);
        // Name lookup and value dedup work without a rebuild step.
        assert!(back
            .relation("Student")
            .unwrap()
            .contains_values(&[Value::from("Mary"), Value::from("CS")]));
        assert_eq!(back.constraints().len(), 2);
        assert!(back.validate_constraints().is_ok());

        // Canonical: re-encoding is byte-identical.
        let mut e2 = Encoder::new();
        encode_database(&back, &mut e2);
        assert_eq!(e2.finish(), encoded);
    }

    #[test]
    fn selections_roundtrip() {
        let db = toy_db();
        let sel = TupleSelection::all(&db);
        let mut e = Encoder::new();
        encode_selection(&sel, &mut e);
        let s = e.finish();
        let mut d = Decoder::new(&s);
        assert_eq!(decode_selection(&mut d).unwrap(), sel);
        d.done().unwrap();
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "int",
            "int notanumber",
            "dbl 42",
            "txt 9999:short",
            "txt -1:x",
            "db 3:toy 1 rel",
            "schema 2 4:name Bool",
            "date int 1",
            "date 99999999999999999999",
            "unknowntag 1 2 3",
        ] {
            // Decoding must fail or succeed cleanly — either way, no panic.
            let mut d = Decoder::new(bad);
            let _ = decode_value(&mut d);
            let mut d2 = Decoder::new(bad);
            assert!(
                decode_database(&mut d2).is_err(),
                "{bad:?} is not a database"
            );
        }
    }

    #[test]
    fn string_length_prefix_respects_char_boundaries() {
        // `3:学` would slice mid-codepoint (学 is 3 bytes, but claim 2).
        let mut d = Decoder::new("2:学");
        assert!(d.s().is_err());
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut e = Encoder::new();
        encode_value(&Value::Int(1), &mut e);
        let mut s = e.finish();
        s.push_str(" surplus");
        let mut d = Decoder::new(&s);
        decode_value(&mut d).unwrap();
        assert!(d.done().is_err());
    }
}

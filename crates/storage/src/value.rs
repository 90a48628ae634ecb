//! Typed values stored in relations.
//!
//! Values must be totally ordered and hashable so that relations can use set
//! semantics and the evaluator can build hash tables for joins, duplicate
//! elimination and grouping. Floating-point values are therefore stored as a
//! bit-normalised `f64` (`-0.0` is normalised to `0.0`, and NaN is not
//! representable through the public constructors).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single attribute value.
///
/// `Null` participates in comparisons the way the RATest algorithms need it
/// to: it is equal to itself and sorts before every other value. (The paper
/// restricts group-by attributes to be non-null and uses set semantics, so a
/// full SQL three-valued logic is unnecessary; predicates over null simply
/// evaluate to false in the `ra` crate's expression evaluator.)
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Absent value.
    Null,
    /// Boolean value.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. Never NaN; `-0.0` normalised to `0.0`.
    Double(f64),
    /// UTF-8 string.
    Text(String),
    /// Calendar date, stored as days since 1970-01-01 (proleptic Gregorian).
    Date(i32),
}

impl Value {
    /// Construct a float value, normalising `-0.0` and rejecting NaN.
    ///
    /// # Panics
    /// Panics if `f` is NaN — NaN has no place in a total order.
    pub fn double(f: f64) -> Self {
        assert!(!f.is_nan(), "NaN values are not supported");
        if f == 0.0 {
            Value::Double(0.0)
        } else {
            Value::Double(f)
        }
    }

    /// Construct a date from a `(year, month, day)` triple.
    ///
    /// Dates are represented internally as days since the Unix epoch so they
    /// order and subtract naturally (TPC-H queries compare and offset dates).
    pub fn date(year: i32, month: u32, day: u32) -> Self {
        Value::Date(days_from_civil(year, month, day))
    }

    /// True when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The type of this value, if it is not null.
    pub fn data_type(&self) -> Option<crate::schema::DataType> {
        use crate::schema::DataType;
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Text(_) => Some(DataType::Text),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// Extract an integer, widening from `Bool` if needed.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Extract a float, widening from `Int` if needed.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Extract a string slice.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Extract a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extract a date (days since epoch).
    pub fn as_date(&self) -> Option<i32> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Whether two values are comparable as numbers (Int/Double/Bool mix).
    fn numeric_pair(&self, other: &Value) -> Option<(f64, f64)> {
        let both_numeric = matches!(self, Value::Int(_) | Value::Double(_))
            && matches!(other, Value::Int(_) | Value::Double(_));
        if both_numeric {
            Some((self.as_double()?, other.as_double()?))
        } else {
            None
        }
    }

    /// Rank used to order values of different variants (Null < Bool < numeric
    /// < Text < Date). Int and Double share a rank so that mixed numeric
    /// comparisons are consistent with equality.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Double(_) => 2,
            Value::Text(_) => 3,
            Value::Date(_) => 4,
        }
    }
}

/// Convert a civil date to days since the Unix epoch.
/// Algorithm from Howard Hinnant's `days_from_civil` (public domain).
pub fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64; // [0, 399]
    let mp = ((m + 9) % 12) as i64; // [0, 11]
    let doy = (153 * mp + 2) / 5 + (d as i64 - 1); // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    (era as i64 * 146097 + doe - 719468) as i32
}

/// Convert days since the Unix epoch back to a `(year, month, day)` triple.
pub fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = z as i64 + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + (m <= 2) as i64) as i32, m, d)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        if let Some((a, b)) = self.numeric_pair(other) {
            return a == b;
        }
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a == b,
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        if let Some((a, b)) = self.numeric_pair(other) {
            // Constructors forbid NaN so total order is safe.
            return a.partial_cmp(&b).expect("NaN is unreachable");
        }
        let rank = self.type_rank().cmp(&other.type_rank());
        if rank != Ordering::Equal {
            return rank;
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            _ => Ordering::Equal,
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Double must hash identically when they compare equal
            // (e.g. 2 == 2.0), so hash every numeric via its f64 bits when it
            // is representable exactly, falling back to the integer itself.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Double(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Text(s) => write!(f, "{s}"),
            Value::Date(d) => {
                let (y, m, day) = civil_from_days(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn mixed_numeric_equality_and_hash_agree() {
        assert_eq!(Value::Int(2), Value::Double(2.0));
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Double(2.0)));
        assert_ne!(Value::Int(2), Value::Double(2.5));
    }

    #[test]
    fn negative_zero_is_normalised() {
        assert_eq!(Value::double(-0.0), Value::double(0.0));
        assert_eq!(hash_of(&Value::double(-0.0)), hash_of(&Value::double(0.0)));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_is_rejected() {
        let _ = Value::double(f64::NAN);
    }

    #[test]
    fn null_sorts_first_and_equals_itself() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Text(String::new()));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn ordering_is_total_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Double(1.5) < Value::Int(2));
        assert!(Value::from("abc") < Value::from("abd"));
        assert!(Value::Bool(false) < Value::Bool(true));
        assert!(Value::date(1995, 1, 1) < Value::date(1995, 3, 15));
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (1992, 2, 29),
            (1998, 12, 31),
            (2019, 4, 9),
            (1900, 3, 1),
        ] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d));
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::double(87.5).to_string(), "87.5");
        assert_eq!(Value::from("CS").to_string(), "CS");
        assert_eq!(Value::date(1995, 3, 15).to_string(), "1995-03-15");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Bool(true).as_int(), Some(1));
        assert_eq!(Value::Int(7).as_double(), Some(7.0));
        assert_eq!(Value::from("x").as_text(), Some("x"));
        assert_eq!(Value::from("x").as_int(), None);
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn data_type_reporting() {
        use crate::schema::DataType;
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::from("s").data_type(), Some(DataType::Text));
        assert_eq!(Value::date(2000, 1, 1).data_type(), Some(DataType::Date));
    }
}

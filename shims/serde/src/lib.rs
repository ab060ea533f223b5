//! Offline stand-in for `serde`.
//!
//! The build environment cannot reach crates.io, so this shim supplies the
//! small serialization surface the workspace uses: a JSON-like [`Value`]
//! tree, [`Serialize`]/[`Deserialize`] traits over it, and `#[derive]`
//! macros (from the sibling `serde_derive` shim) for plain named-field
//! structs. The trait signatures are intentionally simpler than upstream
//! serde's visitor architecture — `serde_json` (also shimmed) is the only
//! consumer.

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree. Objects keep insertion order so serialized
/// output matches struct field order, like derived serde impls do.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Non-negative integers (covers u64 exactly).
    U64(u64),
    /// Negative integers.
    I64(i64),
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization error: what was expected and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    pub message: String,
}

impl DeError {
    pub fn new(message: impl Into<String>) -> Self {
        DeError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.message)
    }
}

impl std::error::Error for DeError {}

/// Conversion into the [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Conversion out of the [`Value`] tree.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Looks up and deserializes a struct field (used by derived impls).
pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
    let inner = v
        .get(name)
        .ok_or_else(|| DeError::new(format!("missing field `{name}`")))?;
    T::from_value(inner).map_err(|e| DeError::new(format!("field `{name}`: {}", e.message)))
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::U64(n) if *n <= <$t>::MAX as u64 => Ok(*n as $t),
                    Value::F64(f) if f.fract() == 0.0 && *f >= 0.0 && *f <= <$t>::MAX as f64 => {
                        Ok(*f as $t)
                    }
                    _ => Err(DeError::new(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if *self < 0 {
                    Value::I64(*self as i64)
                } else {
                    Value::U64(*self as u64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::U64(n) if *n <= <$t>::MAX as u64 => Ok(*n as $t),
                    Value::I64(n) if *n >= <$t>::MIN as i64 => Ok(*n as $t),
                    Value::F64(f) if f.fract() == 0.0 => Ok(*f as $t),
                    _ => Err(DeError::new(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::F64(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::F64(f) => Ok(*f as $t),
                    Value::U64(n) => Ok(*n as $t),
                    Value::I64(n) => Ok(*n as $t),
                    _ => Err(DeError::new(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::new("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::new("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::new("expected array")),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-3i64).to_value()).unwrap(), -3);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        let v: Vec<u8> = Deserialize::from_value(&vec![1u8, 2, 3].to_value()).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn object_field_lookup() {
        let obj = Value::Object(vec![("a".into(), Value::U64(7))]);
        assert_eq!(field::<u64>(&obj, "a").unwrap(), 7);
        assert!(field::<u64>(&obj, "b").is_err());
    }

    #[test]
    fn narrowing_is_checked() {
        assert!(u8::from_value(&Value::U64(300)).is_err());
        assert!(u8::from_value(&Value::U64(255)).is_ok());
    }
}

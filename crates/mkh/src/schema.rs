//! Schemas: named, typed field layouts with hash-directory sizes.

use crate::error::{MkhError, Result};
use crate::value::Value;
use pmr_core::SystemConfig;
use std::fmt;

/// The declared type of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// Signed 64-bit integers.
    Int,
    /// UTF-8 strings.
    Str,
    /// Raw bytes.
    Bytes,
}

impl FieldType {
    /// `true` when `value` inhabits this type.
    pub fn admits(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (FieldType::Int, Value::Int(_))
                | (FieldType::Str, Value::Str(_))
                | (FieldType::Bytes, Value::Bytes(_))
        )
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FieldType::Int => "int",
            FieldType::Str => "str",
            FieldType::Bytes => "bytes",
        }
    }
}

/// One field of a schema: name, type, and hash-directory size `F`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name (unique within a schema).
    pub name: String,
    /// Declared type.
    pub ty: FieldType,
    /// Field size `F` — the number of hash classes; must be a power of two.
    pub size: u64,
}

impl FieldDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: FieldType, size: u64) -> Self {
        FieldDef {
            name: name.into(),
            ty,
            size,
        }
    }
}

/// A record schema: an ordered list of fields plus the device count.
///
/// # Examples
///
/// ```
/// use pmr_mkh::{FieldType, Schema};
///
/// let schema = Schema::builder()
///     .field("author", FieldType::Str, 8)
///     .field("year", FieldType::Int, 8)
///     .field("subject", FieldType::Str, 16)
///     .devices(32)
///     .build()
///     .unwrap();
/// assert_eq!(schema.num_fields(), 3);
/// assert_eq!(schema.system().total_buckets(), 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<FieldDef>,
    system: SystemConfig,
}

impl Schema {
    /// Starts a builder.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder {
            fields: Vec::new(),
            devices: 1,
        }
    }

    /// The synthetic all-integer schema over `system`: fields `f0 … f{n−1}`,
    /// each [`FieldType::Int`] with the system's size, on its `M` devices.
    ///
    /// ```
    /// use pmr_core::SystemConfig;
    /// use pmr_mkh::Schema;
    ///
    /// let sys = SystemConfig::new(&[8, 4], 4).unwrap();
    /// let schema = Schema::ints(&sys);
    /// assert_eq!(schema.to_string(), "schema(f0: int [8], f1: int [4]; M = 4)");
    /// assert_eq!(schema.system(), &sys);
    /// ```
    pub fn ints(system: &SystemConfig) -> Self {
        let fields = (0..system.num_fields())
            .map(|i| FieldDef::new(format!("f{i}"), FieldType::Int, system.field_size(i)))
            .collect();
        Schema {
            fields,
            system: system.clone(),
        }
    }

    /// Builds a schema from parts, validating sizes through
    /// [`SystemConfig`].
    pub fn new(fields: Vec<FieldDef>, devices: u64) -> Result<Self> {
        let sizes: Vec<u64> = fields.iter().map(|f| f.size).collect();
        let system = SystemConfig::new(&sizes, devices)?;
        Ok(Schema { fields, system })
    }

    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// Field definitions in order.
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Index of the field named `name`.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// The bucket space + device count this schema induces.
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// Returns a schema identical to this one except field `field` has
    /// size `new_size` (used by the dynamic directory when doubling).
    pub fn with_field_size(&self, field: usize, new_size: u64) -> Result<Self> {
        let mut fields = self.fields.clone();
        fields[field].size = new_size;
        Schema::new(fields, self.system.devices())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schema(")?;
        for (i, fd) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {} [{}]", fd.name, fd.ty.name(), fd.size)?;
        }
        write!(f, "; M = {})", self.system.devices())
    }
}

/// Fluent builder for [`Schema`].
pub struct SchemaBuilder {
    fields: Vec<FieldDef>,
    devices: u64,
}

impl SchemaBuilder {
    /// Adds a field.
    pub fn field(mut self, name: impl Into<String>, ty: FieldType, size: u64) -> Self {
        self.fields.push(FieldDef::new(name, ty, size));
        self
    }

    /// Sets the device count.
    pub fn devices(mut self, devices: u64) -> Self {
        self.devices = devices;
        self
    }

    /// Finishes, validating through [`SystemConfig`]. Duplicate field names
    /// are rejected.
    pub fn build(self) -> Result<Schema> {
        for (i, f) in self.fields.iter().enumerate() {
            if self.fields[..i].iter().any(|g| g.name == f.name) {
                return Err(MkhError::DuplicateFieldName {
                    name: f.name.clone(),
                });
            }
        }
        Schema::new(self.fields, self.devices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_happy_path() {
        let s = Schema::builder()
            .field("a", FieldType::Int, 4)
            .field("b", FieldType::Str, 8)
            .devices(16)
            .build()
            .unwrap();
        assert_eq!(s.num_fields(), 2);
        assert_eq!(s.field_index("b"), Some(1));
        assert_eq!(s.field_index("zzz"), None);
        assert_eq!(s.system().field_sizes(), &[4, 8]);
        assert_eq!(s.system().devices(), 16);
    }

    #[test]
    fn builder_rejects_bad_sizes_and_duplicates() {
        assert!(Schema::builder()
            .field("a", FieldType::Int, 3)
            .devices(4)
            .build()
            .is_err());
        assert!(Schema::builder()
            .field("a", FieldType::Int, 4)
            .field("a", FieldType::Str, 4)
            .devices(4)
            .build()
            .is_err());
        assert!(Schema::builder().devices(4).build().is_err()); // no fields
    }

    #[test]
    fn field_type_admits() {
        assert!(FieldType::Int.admits(&Value::Int(1)));
        assert!(!FieldType::Int.admits(&Value::from("x")));
        assert!(FieldType::Str.admits(&Value::from("x")));
        assert!(FieldType::Bytes.admits(&Value::from(vec![1u8])));
    }

    #[test]
    fn with_field_size_doubles() {
        let s = Schema::builder()
            .field("a", FieldType::Int, 4)
            .field("b", FieldType::Str, 8)
            .devices(16)
            .build()
            .unwrap();
        let s2 = s.with_field_size(0, 8).unwrap();
        assert_eq!(s2.system().field_sizes(), &[8, 8]);
        assert!(s.with_field_size(0, 3).is_err());
    }

    #[test]
    fn display() {
        let s = Schema::builder()
            .field("a", FieldType::Int, 4)
            .devices(8)
            .build()
            .unwrap();
        assert_eq!(s.to_string(), "schema(a: int [4]; M = 8)");
    }
}

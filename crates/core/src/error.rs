//! Error type shared across the workspace's core layer.

use std::fmt;

/// Result alias for fallible `pmr-core` operations.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors raised while validating configurations, transformations, and
/// queries.
///
/// Every constructor in the crate validates its inputs eagerly so that a
/// mis-specified system fails at build time rather than silently
/// misdistributing buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A quantity that must be a power of two (field size, device count)
    /// was not.
    NotPowerOfTwo {
        /// The offending value.
        value: u64,
    },
    /// A system was declared with zero fields.
    NoFields,
    /// A system was declared with more fields than a [`Pattern`] can
    /// address (one bit per field of a `u32`).
    ///
    /// [`Pattern`]: crate::Pattern
    TooManyFields {
        /// The number of fields supplied.
        fields: usize,
        /// The largest supported field count.
        max: usize,
    },
    /// A field index was out of range for the system.
    FieldOutOfRange {
        /// The requested field index.
        field: usize,
        /// The number of fields in the system.
        num_fields: usize,
    },
    /// A field value was outside `{0, …, F_i − 1}`.
    ValueOutOfRange {
        /// The field the value was supplied for.
        field: usize,
        /// The supplied value.
        value: u64,
        /// The field size `F_i`.
        field_size: u64,
    },
    /// A bucket tuple had the wrong number of coordinates.
    ArityMismatch {
        /// Expected number of fields.
        expected: usize,
        /// Supplied number of coordinates.
        got: usize,
    },
    /// A U/IU1/IU2 transformation was requested for a field whose size is
    /// not strictly less than the device count (the paper only defines the
    /// non-identity transforms on proper subsets of `Z_M`).
    TransformRequiresSmallField {
        /// The field size `F`.
        field_size: u64,
        /// The device count `M`.
        devices: u64,
    },
    /// The bucket space (or a query's qualified-bucket count) overflowed
    /// `u64` / `usize` arithmetic.
    Overflow,
    /// A per-field transform list did not cover every field exactly once.
    TransformArityMismatch {
        /// Expected number of fields.
        expected: usize,
        /// Supplied number of transforms.
        got: usize,
    },
    /// A transform was constructed against a different `M` than the system
    /// it is being used with.
    DeviceCountMismatch {
        /// `M` the transform was built for.
        transform_m: u64,
        /// `M` of the system.
        system_m: u64,
    },
    /// A transform was constructed against a different field size than the
    /// field it is being used with.
    FieldSizeMismatch {
        /// Field index.
        field: usize,
        /// Size the transform was built for.
        transform_size: u64,
        /// Actual field size.
        field_size: u64,
    },
    /// A field's bit images do not span enough of `Z_M`: a field with
    /// `F < M` must map injectively (rank `log2 F`), a field with `F ≥ M`
    /// onto `Z_M` (rank `log2 M`).
    RankDeficient {
        /// Field index.
        field: usize,
        /// The rank of the field's images.
        rank: u32,
        /// The rank the field needs.
        required: u32,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotPowerOfTwo { value } => {
                write!(f, "{value} is not a power of two")
            }
            Error::NoFields => write!(f, "a system must have at least one field"),
            Error::TooManyFields { fields, max } => {
                write!(f, "{fields} fields given, a system has at most {max}")
            }
            Error::FieldOutOfRange { field, num_fields } => {
                write!(
                    f,
                    "field index {field} out of range (system has {num_fields} fields)"
                )
            }
            Error::ValueOutOfRange {
                field,
                value,
                field_size,
            } => {
                write!(
                    f,
                    "value {value} out of range for field {field} (size {field_size})"
                )
            }
            Error::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "bucket has {got} coordinates, system has {expected} fields"
                )
            }
            Error::TransformRequiresSmallField {
                field_size,
                devices,
            } => {
                write!(
                    f,
                    "U/IU1/IU2 transforms require field size < device count \
                     (got F = {field_size}, M = {devices})"
                )
            }
            Error::Overflow => write!(f, "bucket-space arithmetic overflowed"),
            Error::TransformArityMismatch { expected, got } => {
                write!(f, "{got} transforms supplied for a {expected}-field system")
            }
            Error::DeviceCountMismatch {
                transform_m,
                system_m,
            } => {
                write!(
                    f,
                    "transform built for M = {transform_m}, system has M = {system_m}"
                )
            }
            Error::FieldSizeMismatch {
                field,
                transform_size,
                field_size,
            } => {
                write!(
                    f,
                    "transform for field {field} built for size {transform_size}, \
                     field has size {field_size}"
                )
            }
            Error::RankDeficient {
                field,
                rank,
                required,
            } => {
                write!(
                    f,
                    "field {field}'s bit images have rank {rank}, it needs {required} \
                     (injective below M, onto Z_M at or above)"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::NotPowerOfTwo { value: 12 };
        assert_eq!(e.to_string(), "12 is not a power of two");
        let e = Error::ValueOutOfRange {
            field: 2,
            value: 9,
            field_size: 8,
        };
        assert!(e.to_string().contains("field 2"));
        assert!(e.to_string().contains("size 8"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<Error>();
    }
}

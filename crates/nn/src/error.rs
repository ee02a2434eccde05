//! Error type for the neural-network substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by tensor construction and model (de)serialisation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NnError {
    /// A tensor was built with a shape whose element count does not match
    /// the provided data length.
    ShapeMismatch {
        /// Element count implied by the shape.
        expected: usize,
        /// Length of the data actually provided.
        got: usize,
    },
    /// A serialised parameter blob was malformed or truncated.
    MalformedBlob {
        /// Human-readable reason.
        reason: String,
    },
    /// A parameter blob was produced by a model with a different layout.
    LayoutMismatch {
        /// Parameter count expected by the receiving model.
        expected: usize,
        /// Parameter count found in the blob.
        got: usize,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::ShapeMismatch { expected, got } => {
                write!(f, "shape implies {expected} elements but data has {got}")
            }
            NnError::MalformedBlob { reason } => write!(f, "malformed parameter blob: {reason}"),
            NnError::LayoutMismatch { expected, got } => {
                write!(
                    f,
                    "parameter layout mismatch: model has {expected} tensors, blob has {got}"
                )
            }
        }
    }
}

impl Error for NnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = NnError::ShapeMismatch {
            expected: 6,
            got: 5,
        };
        assert!(e.to_string().contains('6') && e.to_string().contains('5'));
        let e = NnError::MalformedBlob {
            reason: "truncated".into(),
        };
        assert!(e.to_string().contains("truncated"));
        let e = NnError::LayoutMismatch {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("layout"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}

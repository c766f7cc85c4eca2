//! Error types for DRAM model configuration.

use std::error::Error;
use std::fmt;

/// Errors produced by the DRAM model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DramError {
    /// A timing parameter set failed validation.
    InvalidTiming {
        /// Human-readable explanation.
        reason: String,
    },
    /// A geometry failed validation.
    InvalidGeometry {
        /// Human-readable explanation.
        reason: String,
    },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::InvalidTiming { reason } => write!(f, "invalid DRAM timing: {reason}"),
            DramError::InvalidGeometry { reason } => write!(f, "invalid DRAM geometry: {reason}"),
        }
    }
}

impl Error for DramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let e = DramError::InvalidGeometry { reason: "zero rows per bank".to_owned() };
        let s = e.to_string();
        assert!(s.contains("zero rows per bank"));
        assert!(s.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DramError>();
    }
}

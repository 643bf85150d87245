//! Error type of the generalized analysis.

use std::error::Error;
use std::fmt;

/// Errors produced by the generalized partial-order analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GpoError {
    /// The valid-set relation `r₀` would exceed the configured number of
    /// explicitly enumerated sets. Raise the limit or switch to the ZDD
    /// representation.
    ValidSetsTooLarge(usize),
    /// The parallel frontier engine failed (a worker panicked or the
    /// dense state-id space overflowed).
    Engine(petri::NetError),
    /// A checkpoint snapshot could not be written, read, or validated.
    Checkpoint(String),
}

impl fmt::Display for GpoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpoError::ValidSetsTooLarge(limit) => write!(
                f,
                "valid-set relation exceeds the limit of {limit} enumerated sets"
            ),
            GpoError::Engine(e) => write!(f, "parallel exploration failed: {e}"),
            GpoError::Checkpoint(detail) => write!(f, "checkpoint error: {detail}"),
        }
    }
}

impl Error for GpoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GpoError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<petri::CheckpointError> for GpoError {
    fn from(e: petri::CheckpointError) -> Self {
        GpoError::Checkpoint(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert_eq!(
            GpoError::ValidSetsTooLarge(10).to_string(),
            "valid-set relation exceeds the limit of 10 enumerated sets"
        );
        assert_eq!(
            GpoError::Checkpoint("bad magic".into()).to_string(),
            "checkpoint error: bad magic"
        );
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<GpoError>();
    }
}

//! Error types for net construction, parsing and analysis.

use std::error::Error;
use std::fmt;

/// Errors produced while building or analysing a Petri net.
///
/// # Examples
///
/// ```
/// use petri::NetError;
///
/// let err = NetError::DuplicateName("p0".into());
/// assert_eq!(err.to_string(), "duplicate node name `p0`");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// A place or transition name was declared twice.
    DuplicateName(String),
    /// An arc referenced a place name that was never declared.
    UnknownPlace(String),
    /// An arc referenced a transition name that was never declared.
    UnknownTransition(String),
    /// The same arc was added twice.
    DuplicateArc {
        /// Source node of the duplicated arc.
        from: String,
        /// Target node of the duplicated arc.
        to: String,
    },
    /// A parallel exploration worker panicked; the run was abandoned after
    /// joining every other worker (no partial result is trustworthy once a
    /// worker died mid-expansion).
    WorkerPanicked,
    /// The state space needs more than `u32::MAX` state identifiers.
    StateIdOverflow,
    /// A firing produced a second token in a place: the net is not safe.
    NotSafe {
        /// Place that would receive a second token.
        place: String,
        /// Transition whose firing violated safeness.
        transition: String,
    },
    /// A textual net description failed to parse.
    Parse {
        /// 1-based line of the offending input.
        line: usize,
        /// 1-based column (in characters) of the offending token, or of
        /// the position where a missing token was expected.
        column: usize,
        /// Explanation of what was expected, naming the offending token.
        message: String,
    },
    /// A checkpoint snapshot could not be written, read, or applied.
    Checkpoint(String),
    /// The structural reduction pre-pass failed to lift a reduced-net
    /// result back to the original net.
    Reduction(String),
    /// A property failed to parse or to compile against the net being
    /// checked (e.g. it names a place the net does not have).
    Property(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::DuplicateName(n) => write!(f, "duplicate node name `{n}`"),
            NetError::UnknownPlace(n) => write!(f, "unknown place `{n}`"),
            NetError::UnknownTransition(n) => write!(f, "unknown transition `{n}`"),
            NetError::DuplicateArc { from, to } => {
                write!(f, "duplicate arc `{from}` -> `{to}`")
            }
            NetError::WorkerPanicked => {
                write!(f, "an exploration worker thread panicked")
            }
            NetError::StateIdOverflow => {
                write!(f, "state space exceeds the u32 state-id range")
            }
            NetError::NotSafe { place, transition } => write!(
                f,
                "net is not safe: firing `{transition}` puts a second token in `{place}`"
            ),
            NetError::Parse {
                line,
                column,
                message,
            } => {
                write!(f, "parse error at line {line}, column {column}: {message}")
            }
            NetError::Checkpoint(detail) => write!(f, "checkpoint error: {detail}"),
            NetError::Reduction(detail) => write!(f, "reduction error: {detail}"),
            NetError::Property(detail) => write!(f, "property error: {detail}"),
        }
    }
}

impl Error for NetError {}

impl From<crate::checkpoint::CheckpointError> for NetError {
    fn from(e: crate::checkpoint::CheckpointError) -> Self {
        NetError::Checkpoint(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let cases: Vec<(NetError, &str)> = vec![
            (NetError::UnknownPlace("x".into()), "unknown place `x`"),
            (
                NetError::UnknownTransition("y".into()),
                "unknown transition `y`",
            ),
            (
                NetError::DuplicateArc {
                    from: "a".into(),
                    to: "b".into(),
                },
                "duplicate arc `a` -> `b`",
            ),
            (
                NetError::WorkerPanicked,
                "an exploration worker thread panicked",
            ),
            (
                NetError::StateIdOverflow,
                "state space exceeds the u32 state-id range",
            ),
            (
                NetError::NotSafe {
                    place: "p".into(),
                    transition: "t".into(),
                },
                "net is not safe: firing `t` puts a second token in `p`",
            ),
            (
                NetError::Parse {
                    line: 3,
                    column: 8,
                    message: "expected `->`".into(),
                },
                "parse error at line 3, column 8: expected `->`",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<NetError>();
    }
}

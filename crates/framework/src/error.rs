//! Typed framework errors, so failures surface as values instead of panics
//! or deadlocks.

use crate::sharing::ScheduleError;

/// Why a framework run failed. Rank-collective by construction: the run
/// drivers coordinate failures across ranks (an IO error is allgathered
/// before any rank enters a collective), so every rank returns the same
/// error instead of deadlocking the survivors.
#[derive(Debug)]
pub enum FrameworkError {
    /// A snapshot read failed; `rank` is the rank that observed it (rank 0
    /// for failures before the ranks were spawned).
    Io { rank: usize, error: std::io::Error },
    /// The work-sharing scheduler rejected its input (non-finite predicted
    /// times).
    Schedule(ScheduleError),
    /// A requested field cannot be rendered under the run's configuration
    /// (see [`field_geometry`](crate::runner::field_geometry)); every rank
    /// refuses it before the first collective.
    Geometry {
        center: dtfe_geometry::Vec3,
        reason: String,
    },
}

impl std::fmt::Display for FrameworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameworkError::Io { rank, error } => {
                write!(f, "snapshot IO error on rank {rank}: {error}")
            }
            FrameworkError::Schedule(e) => write!(f, "work-sharing schedule error: {e}"),
            FrameworkError::Geometry { center, reason } => {
                write!(f, "field at {center:?} cannot be rendered: {reason}")
            }
        }
    }
}

impl std::error::Error for FrameworkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameworkError::Io { error, .. } => Some(error),
            FrameworkError::Schedule(e) => Some(e),
            FrameworkError::Geometry { .. } => None,
        }
    }
}

impl From<ScheduleError> for FrameworkError {
    fn from(e: ScheduleError) -> Self {
        FrameworkError::Schedule(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_rank_and_cause() {
        let e = FrameworkError::Io {
            rank: 3,
            error: std::io::Error::other("truncated block"),
        };
        let s = e.to_string();
        assert!(s.contains("rank 3") && s.contains("truncated block"), "{s}");
        let e: FrameworkError = ScheduleError::NonFiniteTime { rank: 1 }.into();
        assert!(matches!(e, FrameworkError::Schedule(_)));
    }
}

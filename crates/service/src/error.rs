//! Typed request failures — every variant is representable on the wire.

/// Why a request was not served. `Overloaded` and `ShuttingDown` are
/// *shed* responses (the request never entered the queue); the rest are
/// per-request failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission control rejected the request: the priced backlog already
    /// exceeds the configured budget. `retry_after_ms` estimates when
    /// enough backlog will have drained for a retry to be admitted.
    Overloaded { retry_after_ms: u64 },
    /// The request's deadline expired before a worker could render it.
    DeadlineExceeded,
    /// No snapshot with this id is registered (no `<id>.snap` in the
    /// registry directory).
    UnknownSnapshot(String),
    /// The request is malformed: bad grid geometry, non-finite centre, a
    /// centre outside the snapshot bounds, an oversized resolution, …
    InvalidRequest(String),
    /// The snapshot file exists but failed integrity verification
    /// (checksum mismatch, truncation, bad magic).
    CorruptSnapshot(String),
    /// The requested tile's build has failed repeatedly and is quarantined
    /// by the negative cache: retrying before `retry_after_ms` would only
    /// repeat the failure. Distinct from [`Overloaded`](Self::Overloaded) —
    /// the server has capacity, this *tile* is sick.
    Quarantined { retry_after_ms: u64 },
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// Unexpected internal failure (worker died, transport error).
    Internal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded, retry after {retry_after_ms} ms")
            }
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServiceError::UnknownSnapshot(id) => write!(f, "unknown snapshot {id:?}"),
            ServiceError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServiceError::CorruptSnapshot(msg) => write!(f, "corrupt snapshot: {msg}"),
            ServiceError::Quarantined { retry_after_ms } => {
                write!(f, "tile quarantined, retry after {retry_after_ms} ms")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

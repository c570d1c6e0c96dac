//! Storage error type.

use std::fmt;

/// Errors surfaced by [`crate::Device`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Access beyond device capacity.
    OutOfBounds {
        offset: u64,
        len: u64,
        capacity: u64,
    },
    /// The device (or the remote memory behind it) is unavailable.
    /// For remote-memory-backed devices this is the best-effort failure the
    /// paper's scenarios must tolerate without losing correctness.
    Unavailable(String),
    /// A short-lived failure (flaky link, congested donor) that already
    /// exhausted the device's internal retries. The device itself is still
    /// healthy: callers may keep cached state and try again later, unlike
    /// [`StorageError::Unavailable`] where the backing bytes may be gone.
    Transient(String),
    /// A record that cannot fit the unit it must be stored in (a row wider
    /// than a spill page). The device is healthy; the input is not storable.
    RecordTooLarge { len: usize, max: usize },
}

impl StorageError {
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::Transient(_))
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::OutOfBounds {
                offset,
                len,
                capacity,
            } => {
                write!(
                    f,
                    "access [{offset}, {}) exceeds capacity {capacity}",
                    offset.saturating_add(*len)
                )
            }
            StorageError::Unavailable(why) => write!(f, "device unavailable: {why}"),
            StorageError::Transient(why) => write!(f, "device transiently failing: {why}"),
            StorageError::RecordTooLarge { len, max } => {
                write!(f, "record of {len} bytes exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for StorageError {}

//! Fabric error type.

use crate::server::ServerId;
use std::fmt;

/// Errors surfaced by fabric operations. The paper's abstraction is
/// *best-effort* (Table 1): a failed remote server surfaces as
/// [`NetError::ServerDown`] and the database falls back to disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The target server has failed or been removed; RDMA reports this as a
    /// terminated reliable connection (Appendix A).
    ServerDown(ServerId),
    /// Unknown server id.
    NoSuchServer(ServerId),
    /// Unknown or deregistered memory region.
    NoSuchMr { server: ServerId, mr: u64 },
    /// Access beyond the bounds of a memory region.
    OutOfBounds {
        mr: u64,
        offset: u64,
        len: u64,
        mr_len: u64,
    },
    /// NIC limits exceeded (2 GB per MR / ~130 K MRs on ConnectX-3).
    MrLimitExceeded(&'static str),
    /// No queue pair has been connected between the two servers.
    NotConnected { from: ServerId, to: ServerId },
    /// A transient verb failure (flaky link, brief partition): the access is
    /// expected to succeed if retried after a short backoff. Injected by the
    /// fault framework; callers should retry rather than fail over.
    Transient {
        server: ServerId,
        reason: &'static str,
    },
    /// A pushdown request the memory server cannot evaluate (span not a
    /// whole number of pages). Not retryable.
    BadPushdown { reason: &'static str },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::ServerDown(s) => write!(f, "server {s:?} is down"),
            NetError::NoSuchServer(s) => write!(f, "no such server {s:?}"),
            NetError::NoSuchMr { server, mr } => {
                write!(f, "no MR {mr} on server {server:?}")
            }
            NetError::OutOfBounds {
                mr,
                offset,
                len,
                mr_len,
            } => {
                write!(
                    f,
                    "access [{offset}, {}) out of bounds of MR {mr} (len {mr_len})",
                    offset.saturating_add(*len)
                )
            }
            NetError::MrLimitExceeded(which) => write!(f, "NIC MR limit exceeded: {which}"),
            NetError::NotConnected { from, to } => {
                write!(f, "no queue pair connected {from:?} -> {to:?}")
            }
            NetError::Transient { server, reason } => {
                write!(f, "transient failure reaching {server:?}: {reason}")
            }
            NetError::BadPushdown { reason } => {
                write!(f, "malformed pushdown request: {reason}")
            }
        }
    }
}

impl std::error::Error for NetError {}

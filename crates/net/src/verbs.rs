//! Vectored work requests: the scatter/gather verbs that
//! [`crate::Fabric::execute_batch`] rings behind one doorbell.
//!
//! RDMA communication is based on queues (Appendix A): work requests carry
//! one verb each with a scatter/gather list, and the NIC implements the
//! protocol, flow control and reliability in hardware. Callers that keep
//! many transfers in flight (the staging-buffer design of §4.2) build a
//! chain of [`WorkRequest`]s and hand it to the fabric, which returns one
//! completion per request in post order.

use crate::mr::{MemoryRegion, MrHandle};
use crate::server::ServerId;

/// One scatter element of a vectored read: a contiguous span of a remote MR
/// landing in a local buffer segment.
#[derive(Debug)]
pub struct ReadSge<'a> {
    pub mr: MrHandle,
    pub offset: u64,
    pub buf: &'a mut [u8],
}

/// One gather element of a vectored write: a local buffer segment headed
/// for a contiguous span of a remote MR.
#[derive(Debug)]
pub struct WriteSge<'a> {
    pub mr: MrHandle,
    pub offset: u64,
    pub data: &'a [u8],
}

/// A vectored work request: one verb with a scatter/gather list. Like a
/// real WQE, all elements of one WR should target MRs of a single remote
/// server (each WR travels one queue pair); the cost model attributes the
/// WR's op overhead to the first element's server.
#[derive(Debug)]
pub enum WorkRequest<'a> {
    Read(Vec<ReadSge<'a>>),
    Write(Vec<WriteSge<'a>>),
}

impl WorkRequest<'_> {
    /// Total bytes this WR moves across all its elements.
    pub fn bytes(&self) -> u64 {
        match self {
            WorkRequest::Read(sges) => sges.iter().map(|s| s.buf.len() as u64).sum(),
            WorkRequest::Write(sges) => sges.iter().map(|s| s.data.len() as u64).sum(),
        }
    }

    /// Scatter/gather elements this WR carries.
    pub fn sge_count(&self) -> usize {
        match self {
            WorkRequest::Read(sges) => sges.len(),
            WorkRequest::Write(sges) => sges.len(),
        }
    }

    /// (server, first offset) of the WR's first element — the address the
    /// fault schedule and op-overhead accounting key on.
    pub(crate) fn target(&self) -> Option<(ServerId, u64)> {
        match self {
            WorkRequest::Read(sges) => sges.first().map(|s| (s.mr.server, s.offset)),
            WorkRequest::Write(sges) => sges.first().map(|s| (s.mr.server, s.offset)),
        }
    }

    /// Iterate `(handle, offset, len)` per element, for validation.
    pub(crate) fn sges(&self) -> Vec<(MrHandle, u64, u64)> {
        match self {
            WorkRequest::Read(sges) => sges
                .iter()
                .map(|s| (s.mr, s.offset, s.buf.len() as u64))
                .collect(),
            WorkRequest::Write(sges) => sges
                .iter()
                .map(|s| (s.mr, s.offset, s.data.len() as u64))
                .collect(),
        }
    }

    /// Move the bytes through the validated regions (parallel to the SGE
    /// list). Time has already been charged by the doorbell.
    pub(crate) fn execute(&mut self, regions: &[MemoryRegion]) {
        match self {
            WorkRequest::Read(sges) => {
                for (sge, region) in sges.iter_mut().zip(regions) {
                    region.read_into(sge.offset, sge.buf);
                }
            }
            WorkRequest::Write(sges) => {
                for (sge, region) in sges.iter().zip(regions) {
                    region.write_from(sge.offset, sge.data);
                }
            }
        }
    }
}

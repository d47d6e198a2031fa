//! Combined error type for runtime operations that both touch the local
//! disk and talk to other processors (redistribution, executor steps).
//!
//! The fault-injection subsystem threads failures out of both substrates:
//! [`pario::IoError`] carries disk faults (including permanent ones that
//! survive the retry policy), [`dmsim::CommError`] carries communication
//! failures (a disconnected peer — typically a rank that died on a
//! permanent fault of its own). Recovery logic matches on the variant to
//! pick a strategy: checkpoint/restart for permanent I/O faults, a
//! coordinated re-run for lost peers. [`OocError::Data`] is the third
//! kind: an executor read an input array whose *contents* break the
//! format it relies on (CSR row pointers that do not ascend) — no retry
//! helps.

use std::fmt;

use dmsim::CommError;
use pario::IoError;

/// A runtime step failed in the I/O or the communication substrate.
#[derive(Debug)]
pub enum OocError {
    /// A local-disk operation failed.
    Io(IoError),
    /// A communication operation failed.
    Comm(CommError),
    /// The contents of an input array are malformed.
    Data {
        /// Name of the offending array.
        array: String,
        /// What is wrong with it.
        reason: String,
    },
}

impl OocError {
    /// True when the failure is recoverable by checkpoint/restart: a
    /// permanent disk fault on this rank, or a peer lost mid-collective
    /// (the peer's own permanent fault unwinding through the fabric).
    pub fn is_recoverable(&self) -> bool {
        match self {
            OocError::Io(e) => matches!(e, IoError::PermanentFault { .. }),
            OocError::Comm(_) => true,
            OocError::Data { .. } => false,
        }
    }

    /// True when the failure is a permanent disk death
    /// ([`IoError::DiskDown`]): no local retry or same-disk
    /// checkpoint/restart helps — the workload layer must re-plan the job
    /// onto surviving disks.
    pub fn is_disk_down(&self) -> bool {
        matches!(self, OocError::Io(IoError::DiskDown { .. }))
    }
}

impl fmt::Display for OocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OocError::Io(e) => write!(f, "I/O error: {e}"),
            OocError::Comm(e) => write!(f, "communication error: {e}"),
            OocError::Data { array, reason } => {
                write!(f, "malformed contents of array `{array}`: {reason}")
            }
        }
    }
}

impl std::error::Error for OocError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OocError::Io(e) => Some(e),
            OocError::Comm(e) => Some(e),
            OocError::Data { .. } => None,
        }
    }
}

impl From<IoError> for OocError {
    fn from(e: IoError) -> Self {
        OocError::Io(e)
    }
}

impl From<CommError> for OocError {
    fn from(e: CommError) -> Self {
        OocError::Comm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recoverability_matches_the_taxonomy() {
        let hard: OocError = IoError::PermanentFault {
            file: 0,
            offset: 0,
            op: pario::FaultOp::Read,
        }
        .into();
        assert!(hard.is_recoverable());
        let soft: OocError = IoError::NoSuchFile { file: 1 }.into();
        assert!(!soft.is_recoverable());
        let dead: OocError = IoError::DiskDown { file: 2 }.into();
        assert!(!dead.is_recoverable(), "a dead disk cannot be restarted");
        assert!(dead.is_disk_down());
        assert!(!hard.is_disk_down());
        let comm: OocError = CommError::Recv(dmsim::RecvError::Disconnected { from: 2 }).into();
        assert!(comm.is_recoverable());
        assert!(hard.to_string().contains("permanent"));
    }
}

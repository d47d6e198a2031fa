//! Error type for the I/O layer.

use std::fmt;

/// Errors produced by logical-disk and local-array-file operations.
#[derive(Debug)]
pub enum IoError {
    /// An access touched bytes beyond the end of the file.
    OutOfBounds {
        /// File being accessed.
        file: u64,
        /// First byte past the end that the access needed.
        needed: u64,
        /// Actual file length in bytes.
        len: u64,
    },
    /// The file id is not present on this logical disk.
    NoSuchFile {
        /// The missing file id.
        file: u64,
    },
    /// The underlying OS file operation failed (on-disk backend only).
    Backend(std::io::Error),
    /// A typed read/write used a buffer whose size is not a multiple of the
    /// element size.
    BadElementSize {
        /// Bytes supplied.
        bytes: usize,
        /// Element size in bytes.
        elem: usize,
    },
    /// The fault layer injected a permanent fault that no retry can clear;
    /// recovery requires checkpoint/restart, not re-issuing the request.
    PermanentFault {
        /// File being accessed.
        file: u64,
        /// Byte offset of the faulted access.
        offset: u64,
        /// Whether the faulted access was a read or a write.
        op: FaultOp,
    },
    /// The logical disk died permanently (its fault budget ran out); no
    /// retry and no checkpoint/restart on the same disk can clear this.
    /// Recovery means re-planning the job onto surviving disks.
    DiskDown {
        /// File whose access hit the dead disk.
        file: u64,
    },
    /// A file of `len` elements of `elem` bytes each cannot be created:
    /// its byte length overflows, or the backend cannot allocate it.
    TooLarge {
        /// Requested length in elements.
        len: u64,
        /// Element size in bytes (1 for a raw byte file).
        elem: usize,
    },
}

/// The direction of a permanently faulted disk access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A read hit the permanent fault.
    Read,
    /// A write hit the permanent fault.
    Write,
}

impl fmt::Display for FaultOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultOp::Read => write!(f, "read"),
            FaultOp::Write => write!(f, "write"),
        }
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::OutOfBounds { file, needed, len } => write!(
                f,
                "out-of-bounds access on file {file}: needs byte {needed}, length is {len}"
            ),
            IoError::NoSuchFile { file } => write!(f, "no such file on this logical disk: {file}"),
            IoError::Backend(e) => write!(f, "backend I/O error: {e}"),
            IoError::BadElementSize { bytes, elem } => write!(
                f,
                "buffer of {bytes} bytes is not a whole number of {elem}-byte elements"
            ),
            IoError::PermanentFault { file, offset, op } => write!(
                f,
                "permanent {op} fault on file {file} at byte {offset} (retries exhausted)"
            ),
            IoError::DiskDown { file } => write!(
                f,
                "logical disk died permanently; access to file {file} refused"
            ),
            IoError::TooLarge { len, elem } => write!(
                f,
                "cannot create a file of {len} elements of {elem} bytes: too large"
            ),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Backend(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Backend(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, IoError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = IoError::OutOfBounds {
            file: 3,
            needed: 100,
            len: 64,
        };
        let s = e.to_string();
        assert!(s.contains("file 3") && s.contains("100") && s.contains("64"));
        assert!(IoError::NoSuchFile { file: 9 }.to_string().contains('9'));
    }

    #[test]
    fn permanent_fault_display_names_the_site() {
        let e = IoError::PermanentFault {
            file: 4,
            offset: 128,
            op: FaultOp::Write,
        };
        let s = e.to_string();
        assert!(s.contains("permanent write fault"), "{s}");
        assert!(s.contains("file 4") && s.contains("128"), "{s}");
    }

    #[test]
    fn io_error_conversion() {
        let os = std::io::Error::other("boom");
        let e: IoError = os.into();
        assert!(matches!(e, IoError::Backend(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}

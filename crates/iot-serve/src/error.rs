//! Error types for the serving hub.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use crate::HomeId;

/// A home is quarantined: a panic unwound out of its monitor, the
/// poisoned monitor was sealed off, and the home takes no further events
/// until it is restored ([`crate::ModelUpdate::Restore`] or the hub's
/// [`crate::RestorePolicy`]).
///
/// Carried by [`SubmitError::Quarantined`] so submitters see *why* the
/// home is refusing traffic: the captured panic payload and how many
/// times the home has already been restored this session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedError {
    /// The quarantined home.
    pub home: HomeId,
    /// The most recent captured panic payload (the panic message when it
    /// was a string, a placeholder otherwise).
    pub panic: String,
    /// Restores already performed for this home this session.
    pub restores: u64,
}

impl fmt::Display for QuarantinedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "home {} is quarantined after a monitor panic ({} restore(s) so far): {}",
            self.home, self.restores, self.panic
        )
    }
}

impl Error for QuarantinedError {}

/// Why a [`crate::Hub`] submission was rejected.
///
/// What a full shard queue turns into depends on the hub's
/// [`crate::SubmitPolicy`]: fail-fast surfaces [`SubmitError::QueueFull`]
/// immediately, block-with-deadline surfaces
/// [`SubmitError::DeadlineExceeded`] once the deadline lapses, and
/// retry-with-backoff surfaces [`SubmitError::QueueFull`] only after its
/// retry budget is exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubmitError {
    /// The shard queue serving this home is at capacity — explicit
    /// backpressure; retry later or shed the event. Under
    /// [`crate::SubmitPolicy::Retry`] this is returned only after every
    /// retry also found the queue full.
    QueueFull {
        /// The home whose shard queue was full.
        home: HomeId,
        /// The shard's bounded queue capacity (jobs).
        capacity: usize,
    },
    /// The home was never registered with this hub.
    UnknownHome {
        /// The offending home id.
        home: HomeId,
    },
    /// The hub's workers have stopped (the hub is shutting down); no
    /// further events can be served.
    Shutdown,
    /// The home is quarantined after a monitor panic and takes no events
    /// until restored (see [`QuarantinedError`]).
    Quarantined(QuarantinedError),
    /// [`crate::SubmitPolicy::Block`]: the shard queue stayed full past
    /// the configured deadline.
    DeadlineExceeded {
        /// The home whose shard queue stayed full.
        home: HomeId,
        /// The deadline that lapsed.
        deadline: Duration,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { home, capacity } => write!(
                f,
                "shard queue for home {home} is full ({capacity} jobs); apply backpressure"
            ),
            SubmitError::UnknownHome { home } => {
                write!(f, "home {home} is not registered with this hub")
            }
            SubmitError::Shutdown => write!(f, "hub is shut down"),
            SubmitError::Quarantined(q) => q.fmt(f),
            SubmitError::DeadlineExceeded { home, deadline } => write!(
                f,
                "shard queue for home {home} stayed full past the {deadline:?} submit deadline"
            ),
        }
    }
}

impl Error for SubmitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SubmitError::Quarantined(q) => Some(q),
            _ => None,
        }
    }
}

impl From<QuarantinedError> for SubmitError {
    fn from(e: QuarantinedError) -> Self {
        SubmitError::Quarantined(e)
    }
}

/// [`crate::Hub::shutdown_within`]'s deadline lapsed before every worker
/// and the supervisor finished.
///
/// The hub's threads were detached, not killed: queued work may still
/// complete in the background, but no reports can be collected and no
/// further interaction with the hub is possible. Treat the process as
/// needing an external restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownTimeout {
    /// The deadline that lapsed.
    pub deadline: Duration,
    /// Worker threads still running when the deadline hit.
    pub stuck_workers: usize,
}

impl fmt::Display for ShutdownTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hub shutdown did not complete within {:?}: {} worker thread(s) still running",
            self.deadline, self.stuck_workers
        )
    }
}

impl Error for ShutdownTimeout {}

/// Why [`crate::Hub::recover`] refused to rebuild a fleet from its
/// durability directory.
///
/// Recovery is fail-closed: a record or document that cannot be fully
/// verified stops the whole recovery with [`RecoveryError::Corrupt`]
/// naming the file and byte offset / line, rather than serving from
/// silently wrong state. (A *torn tail* — an incomplete final record
/// from dying mid-append — is not corruption; it is discarded and
/// counted in the [`crate::RecoveryReport`].)
#[derive(Debug)]
#[non_exhaustive]
pub enum RecoveryError {
    /// The supplied config has no armed [`crate::DurabilityConfig`], so
    /// there is nothing to recover from.
    NotArmed,
    /// An I/O failure while reading durable state.
    Io(std::io::Error),
    /// A durable file failed verification. `detail` pins the failure:
    /// for a WAL segment the byte offset and cause, for a snapshot or
    /// checkpoint the offending line.
    Corrupt {
        /// The file that failed verification.
        file: std::path::PathBuf,
        /// What failed, precisely.
        detail: String,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::NotArmed => {
                write!(f, "recovery requires an armed durability config")
            }
            RecoveryError::Io(e) => write!(f, "recovery I/O failure: {e}"),
            RecoveryError::Corrupt { file, detail } => {
                write!(f, "corrupt durable state in {}: {detail}", file.display())
            }
        }
    }
}

impl Error for RecoveryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RecoveryError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_meaningful() {
        let e = SubmitError::QueueFull {
            home: HomeId(3),
            capacity: 128,
        };
        assert!(e.to_string().contains("128"));
        assert!(SubmitError::UnknownHome { home: HomeId(9) }
            .to_string()
            .contains('9'));
        assert!(SubmitError::Shutdown.to_string().contains("shut down"));
        let q = QuarantinedError {
            home: HomeId(4),
            panic: "boom".into(),
            restores: 2,
        };
        assert!(q.to_string().contains("boom"));
        assert!(SubmitError::from(q.clone()).to_string().contains("boom"));
        let d = SubmitError::DeadlineExceeded {
            home: HomeId(1),
            deadline: Duration::from_millis(5),
        };
        assert!(d.to_string().contains("deadline"));
        let t = ShutdownTimeout {
            deadline: Duration::from_secs(2),
            stuck_workers: 3,
        };
        assert!(t.to_string().contains("3 worker"));
        assert!(RecoveryError::NotArmed.to_string().contains("armed"));
        let c = RecoveryError::Corrupt {
            file: std::path::PathBuf::from("/x/wal-0000000000.log"),
            detail: "offset 42: crc mismatch".into(),
        };
        assert!(c.to_string().contains("offset 42"));
        assert!(c.to_string().contains("wal-0000000000.log"));
        let io = RecoveryError::from(std::io::Error::other("disk gone"));
        assert!(io.to_string().contains("disk gone"));
        assert!(Error::source(&io).is_some());
    }

    #[test]
    fn quarantined_error_is_the_source() {
        let q = QuarantinedError {
            home: HomeId(0),
            panic: "x".into(),
            restores: 0,
        };
        let e = SubmitError::Quarantined(q);
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&SubmitError::Shutdown).is_none());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<SubmitError>();
        assert_bounds::<QuarantinedError>();
        assert_bounds::<ShutdownTimeout>();
        assert_bounds::<RecoveryError>();
    }
}

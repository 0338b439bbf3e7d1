//! The unified error type for the whole CausalIoT stack.

use std::error::Error as StdError;
use std::fmt;

use causaliot_core::{CausalIotError, ConfigError, DropReason};
use iot_fleet::FleetError;
use iot_model::ModelError;
use iot_serve::{QuarantinedError, SubmitError};

/// Everything that can go wrong across the CausalIoT stack, in one
/// `#[non_exhaustive]` enum.
///
/// Each layer keeps its own precise error type — [`ConfigError`],
/// [`CausalIotError`] (fitting and checkpoint loading), [`DropReason`]
/// (preprocessing rejections), [`SubmitError`] / [`QuarantinedError`]
/// (serving), [`FleetError`] (the model store and sweep orchestrator) —
/// and every one of them converts into `Error` via `From`, so an
/// application can hold one error type end-to-end:
///
/// ```
/// use causaliot::{Error, FittedModel};
///
/// fn load(text: &str) -> Result<FittedModel, Error> {
///     Ok(FittedModel::load(text)?) // CausalIotError -> Error
/// }
/// assert!(load("not a checkpoint").is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// An out-of-range configuration parameter, from
    /// [`causaliot_core::CausalIotBuilder::try_build`] or
    /// [`iot_serve::HubConfigBuilder::try_build`].
    Config(ConfigError),
    /// A fitting or checkpoint-loading failure from the core pipeline
    /// (insufficient training data, invalid embedded config, malformed
    /// checkpoint, data-model error).
    Pipeline(CausalIotError),
    /// Preprocessing dropped a raw event
    /// ([`causaliot_core::OwnedMonitor::observe_with`]).
    Dropped(DropReason),
    /// A hub submission was rejected (full queue, unknown home, deadline,
    /// shutdown). A [`SubmitError::Quarantined`] rejection is normalised
    /// to [`Error::Quarantined`] instead.
    Submit(SubmitError),
    /// A served home is quarantined after a monitor panic.
    Quarantined(QuarantinedError),
    /// A fleet-layer failure: the model store (missing/corrupt blob,
    /// lineage, filesystem) or the sweep orchestrator (child process,
    /// protocol). A blob that fails CRC verification surfaces here as
    /// `Fleet(FleetError::Model(..))`, keeping the loader's
    /// path-and-offset detail.
    Fleet(FleetError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(e) => e.fmt(f),
            Error::Pipeline(e) => e.fmt(f),
            Error::Dropped(e) => write!(f, "event dropped by preprocessing: {e}"),
            Error::Submit(e) => e.fmt(f),
            Error::Quarantined(e) => e.fmt(f),
            Error::Fleet(e) => e.fmt(f),
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Config(e) => Some(e),
            Error::Pipeline(e) => Some(e),
            Error::Dropped(e) => Some(e),
            Error::Submit(e) => Some(e),
            Error::Quarantined(e) => Some(e),
            Error::Fleet(e) => Some(e),
        }
    }
}

impl From<FleetError> for Error {
    fn from(e: FleetError) -> Self {
        Error::Fleet(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<CausalIotError> for Error {
    fn from(e: CausalIotError) -> Self {
        Error::Pipeline(e)
    }
}

impl From<ModelError> for Error {
    fn from(e: ModelError) -> Self {
        Error::Pipeline(CausalIotError::from(e))
    }
}

impl From<DropReason> for Error {
    fn from(e: DropReason) -> Self {
        Error::Dropped(e)
    }
}

impl From<SubmitError> for Error {
    fn from(e: SubmitError) -> Self {
        match e {
            // One canonical place for quarantine, however it surfaced.
            SubmitError::Quarantined(q) => Error::Quarantined(q),
            other => Error::Submit(other),
        }
    }
}

impl From<QuarantinedError> for Error {
    fn from(e: QuarantinedError) -> Self {
        Error::Quarantined(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iot_serve::HomeId;

    #[test]
    fn every_layer_converts() {
        let config: Error = ConfigError::new("alpha", "must be in (0, 1)").into();
        assert!(matches!(config, Error::Config(_)));
        let pipeline: Error = CausalIotError::InsufficientTrainingData {
            events: 1,
            required: 10,
        }
        .into();
        assert!(matches!(pipeline, Error::Pipeline(_)));
        let model: Error = ModelError::UnknownDevice { name: "x".into() }.into();
        assert!(matches!(model, Error::Pipeline(CausalIotError::Model(_))));
        let dropped: Error = DropReason::Duplicate.into();
        assert!(matches!(dropped, Error::Dropped(_)));
        let submit: Error = SubmitError::Shutdown.into();
        assert!(matches!(submit, Error::Submit(_)));
        let fleet: Error = FleetError::UnknownHome { name: "h".into() }.into();
        assert!(matches!(fleet, Error::Fleet(_)));
    }

    #[test]
    fn quarantine_is_normalised() {
        let q = QuarantinedError {
            home: HomeId::from_index(3),
            panic: "boom".into(),
            restores: 0,
        };
        let via_submit: Error = SubmitError::Quarantined(q.clone()).into();
        let direct: Error = q.into();
        assert!(matches!(via_submit, Error::Quarantined(_)));
        assert_eq!(via_submit, direct);
    }

    #[test]
    fn displays_and_sources_chain() {
        let e: Error = DropReason::Extreme.into();
        assert!(e.to_string().contains("extreme"));
        assert!(StdError::source(&e).is_some());
        let e: Error = ConfigError::new("workers", "must be at least 1").into();
        assert!(e.to_string().contains("workers"));
        assert!(StdError::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: StdError + Send + Sync + 'static>() {}
        assert_bounds::<Error>();
    }
}

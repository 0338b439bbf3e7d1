//! Static assertions pinning the public API contract: thread-safety
//! bounds where promised, `std::error::Error` on every public error
//! type, cheap (`Arc`-bump) model handles, and a prelude that resolves
//! every workhorse type.

use std::error::Error;

fn assert_send<T: Send>() {}
fn assert_send_sync_static<T: Send + Sync + 'static>() {}
fn assert_error<T: Error + Send + Sync + 'static>() {}

#[test]
fn promised_thread_bounds_hold() {
    // The hub is moved across threads (e.g. into a serving task)...
    assert_send::<iot_serve::Hub>();
    // ...model handles are shared across shards and producers...
    assert_send_sync_static::<causaliot::FittedModel>();
    // ...and owned monitors live on worker threads.
    assert_send::<causaliot::OwnedMonitor>();
    fn assert_static<T: 'static>() {}
    assert_static::<causaliot::OwnedMonitor>();
    // Reports cross the shutdown boundary.
    assert_send_sync_static::<iot_serve::HomeReport>();
    assert_send_sync_static::<iot_telemetry::MonitorReport>();
    assert_send_sync_static::<iot_telemetry::TelemetryHandle>();
}

#[test]
fn every_public_error_type_is_a_std_error() {
    assert_error::<causaliot::Error>();
    assert_error::<causaliot::CausalIotError>();
    assert_error::<causaliot::ConfigError>();
    assert_error::<causaliot::DropReason>();
    assert_error::<iot_serve::SubmitError>();
    assert_error::<iot_serve::QuarantinedError>();
    assert_error::<iot_serve::ShutdownTimeout>();
    assert_error::<iot_serve::RecoveryError>();
    assert_error::<iot_model::ModelError>();
}

#[test]
fn fault_hook_is_object_safe() {
    fn _takes_dyn(_: &dyn iot_serve::FaultHook) {}
    fn _takes_arc(_: std::sync::Arc<dyn iot_serve::FaultHook>) {}
}

#[test]
fn fitted_model_handle_stays_one_pointer() {
    // FittedModel is documented as a cheap Arc-backed handle whose clone
    // is a refcount bump; a size regression here means someone inlined
    // state into the handle.
    assert_eq!(
        std::mem::size_of::<causaliot::FittedModel>(),
        std::mem::size_of::<usize>(),
        "FittedModel must stay a single Arc pointer"
    );
}

#[test]
fn prelude_resolves_the_workhorse_types() {
    // Compile-time only: every name the prelude promises must resolve
    // through `causaliot::prelude::*`.
    use causaliot::prelude::*;

    #[allow(dead_code, clippy::too_many_arguments)]
    fn _signatures(
        _: &CausalIot,
        _: &FittedModel,
        _: &Monitor<'_>,
        _: &OwnedMonitor,
        _: &Verdict,
        _: &Hub,
        _: &HubConfig,
        _: &HubConfigBuilder,
        _: HomeId,
        _: &HomeReport,
        _: &SubmitPolicy,
        _: &RestorePolicy,
        _: &dyn FaultHook,
        _: &Error,
        _: &SubmitError,
        _: &QuarantinedError,
        _: &CausalIotError,
        _: &ConfigError,
        _: DropReason,
        _: &DeviceRegistry,
        _: BinaryEvent,
        _: DeviceId,
        _: Timestamp,
        _: &TelemetryHandle,
        _: &MonitorReport,
        _: Observation<'_>,
        _: &ObserveCtx<'_>,
        _: BatchOutcome,
        _: &AdaptationPolicy,
        _: &BackoffPolicy,
        _: ModelUpdate<'_>,
        _: UpdateReason,
        _: &UpdateOutcome,
        _: &UpdateError,
        _: &DriftConfig,
        _: &DriftDetector,
        _: &DriftReport,
        _: DriftSeverity,
        _: &DriftSignal,
        _: &Refit,
        _: &ModelStore,
    ) {
    }
    let _ = TauChoice::default();
    let _ = Attribute::Switch;
    let _ = Room::new("room");
    let _ = DeviceEvent::new(
        Timestamp::from_secs(0),
        DeviceId::from_index(0),
        iot_model::StateValue::Binary(true),
    );
}

#[test]
fn unified_error_round_trips_every_layer() {
    let submit: causaliot::Error = iot_serve::SubmitError::Shutdown.into();
    assert!(submit.source().is_some());
    let config: causaliot::Error =
        causaliot::ConfigError::new("workers", "must be at least 1").into();
    assert!(config.to_string().contains("workers"));
    let dropped: causaliot::Error = causaliot::DropReason::Duplicate.into();
    assert!(dropped.source().is_some());
}

#[test]
fn observation_api_signatures_are_pinned() {
    use causaliot::{DropReason, Observation, ObserveCtx, OwnedMonitor, StaleSet, Verdict};
    use iot_model::{BinaryEvent, DeviceEvent};

    // The canonical entry point every observe variant routes through...
    let _canonical: fn(
        &mut OwnedMonitor,
        Observation<'_>,
        &ObserveCtx<'_>,
    ) -> Result<Verdict, DropReason> = OwnedMonitor::observe_with;
    // ...and the four convenience wrappers it subsumes (kept as `#[inline]`
    // forwarders; callers migrate at their leisure).
    let _observe: fn(&mut OwnedMonitor, BinaryEvent) -> Verdict = OwnedMonitor::observe;
    let _raw: fn(&mut OwnedMonitor, &DeviceEvent) -> Result<Verdict, DropReason> =
        OwnedMonitor::observe_raw;
    let _degraded: fn(&mut OwnedMonitor, BinaryEvent, &StaleSet) -> Verdict =
        OwnedMonitor::observe_degraded;
    let _raw_degraded: fn(
        &mut OwnedMonitor,
        &DeviceEvent,
        &StaleSet,
    ) -> Result<Verdict, DropReason> = OwnedMonitor::observe_raw_degraded;

    // The batched fast path and its accumulator forms.
    let _batch: for<'m> fn(&'m mut OwnedMonitor, &[BinaryEvent]) -> &'m [Verdict] =
        OwnedMonitor::observe_batch;
    let _batch_into: fn(&mut OwnedMonitor, &[BinaryEvent], &mut Vec<Verdict>) =
        OwnedMonitor::observe_batch_into;
    let _batch_degraded: fn(&mut OwnedMonitor, &[BinaryEvent], &StaleSet, &mut Vec<Verdict>) =
        OwnedMonitor::observe_batch_degraded_into;
    let _batch_stats_only: fn(&mut OwnedMonitor, &[BinaryEvent], &mut usize) =
        OwnedMonitor::observe_batch_stats_only;

    // Hub batch submission borrows the events and reports partial
    // acceptance instead of consuming a Vec.
    let _submit_batch: fn(
        &iot_serve::Hub,
        iot_serve::HomeId,
        &[BinaryEvent],
    ) -> Result<iot_serve::BatchOutcome, iot_serve::SubmitError> = iot_serve::Hub::submit_batch;
    let outcome = iot_serve::BatchOutcome {
        accepted: 3,
        rejected_at: None,
    };
    assert!(outcome.is_complete());
}

#[test]
// The whole point is pinning the exact (complex) signatures verbatim.
#[allow(clippy::type_complexity)]
fn model_lifecycle_api_signatures_are_pinned() {
    use causaliot::fleet::{FleetError, Generation, ModelHash, ModelStore};
    use causaliot::FittedModel;
    use iot_serve::{
        HomeId, Hub, ModelUpdate, SubmitError, UpdateError, UpdateOutcome, UpdateReason,
    };

    // The unified lifecycle entry point every model change routes
    // through...
    let _apply: fn(&Hub, ModelUpdate<'_>) -> Result<UpdateOutcome, UpdateError> = Hub::apply;
    // ...and the historical methods, kept as `#[inline]` forwarders.
    let _swap: fn(&Hub, HomeId, &FittedModel) -> Result<(), SubmitError> = Hub::swap_model;
    let _restore: fn(&Hub, HomeId, &FittedModel) -> Result<(), SubmitError> = Hub::restore;
    let _bulk: fn(&Hub, &ModelStore, &[HomeId]) -> Result<Vec<(HomeId, Generation)>, FleetError> =
        Hub::bulk_swap;
    // Rollback reverts a home to its prior lineage generation through
    // the same swap path.
    let _rollback: fn(&Hub, &ModelStore, HomeId) -> Result<Generation, FleetError> = Hub::rollback;
    let _store_rollback: fn(&ModelStore, &str) -> Result<(Generation, ModelHash), FleetError> =
        ModelStore::rollback;

    // Every update variant is constructible with borrowed models (a
    // swap must not force a deep copy at the call site)...
    fn _variants<'a>(
        home: HomeId,
        model: &'a FittedModel,
        store: &'a ModelStore,
        homes: &'a [HomeId],
    ) -> [ModelUpdate<'a>; 4] {
        [
            ModelUpdate::Swap { home, model },
            ModelUpdate::Restore { home, model },
            ModelUpdate::DriftRefit { home, model },
            ModelUpdate::BulkSwap { store, homes },
        ]
    }
    // ...and reasons render as stable telemetry counter suffixes.
    assert_eq!(UpdateReason::Rollout.as_str(), "rollout");
    assert_eq!(UpdateReason::Restore.as_str(), "restore");
    assert_eq!(UpdateReason::AutoRestore.as_str(), "auto_restore");
    assert_eq!(UpdateReason::BulkSwap.as_str(), "bulk_swap");
    assert_eq!(UpdateReason::DriftRefit.as_str(), "drift_refit");
    assert_eq!(UpdateReason::Rollback.as_str(), "rollback");
}

#[test]
// The whole point is pinning the exact (complex) signatures verbatim.
#[allow(clippy::type_complexity)]
fn durability_api_signatures_are_pinned() {
    use iot_serve::{
        DurabilityConfig, DurabilityPolicy, HomeReport, Hub, HubConfig, RecoveryError,
        RecoveryReport, ShutdownTimeout,
    };
    use std::time::Duration;

    // Shutdown stays infallible; the bounded variant is a new method,
    // not a breaking change to the old one.
    let _shutdown: fn(Hub) -> Vec<HomeReport> = Hub::shutdown;
    let _bounded: fn(Hub, Duration) -> Result<Vec<HomeReport>, ShutdownTimeout> =
        Hub::shutdown_within;
    // Crash recovery rebuilds a whole fleet from the durability root.
    let _recover: fn(HubConfig) -> Result<(Hub, RecoveryReport), RecoveryError> = Hub::recover;

    // The durability vocabulary: every policy is constructible, the
    // default is Off, and `at` arms group commit.
    let _off = DurabilityPolicy::Off;
    let _interval = DurabilityPolicy::Interval {
        events: 64,
        max_delay: Duration::from_millis(5),
    };
    let _strict = DurabilityPolicy::Strict;
    assert_eq!(DurabilityPolicy::default(), DurabilityPolicy::Off);
    let config = DurabilityConfig::at("/tmp/wal");
    assert!(config.is_armed());
    assert!(!DurabilityConfig {
        policy: DurabilityPolicy::Off,
        ..config
    }
    .is_armed());

    // Recovery reports cross thread boundaries with the hub.
    assert_send_sync_static::<RecoveryReport>();
    assert_send_sync_static::<iot_serve::HomeRecovery>();
}

#[test]
fn backoff_policy_is_shared_between_restore_and_adaptation() {
    use iot_serve::{AdaptationPolicy, BackoffPolicy, RestorePolicy};
    use std::time::Duration;

    // One validated backoff vocabulary for both recovery loops.
    let backoff = BackoffPolicy {
        max_attempts: 3,
        initial: Duration::from_millis(50),
        max: Duration::from_secs(5),
    };
    let _restore = RestorePolicy {
        from_checkpoint: std::path::PathBuf::from("/tmp/model"),
        backoff,
    };
    let _adapt = AdaptationPolicy {
        backoff,
        ..AdaptationPolicy::default()
    };
    // Doubling, capped.
    assert_eq!(backoff.delay(0), Duration::from_millis(50));
    assert_eq!(backoff.delay(1), Duration::from_millis(100));
    assert_eq!(backoff.delay(10), Duration::from_secs(5));
    // The seeded jitter variant is opt-in per call site: deterministic
    // for a (seed, attempt) pair, strictly additive, and bounded.
    let _jittered: fn(&BackoffPolicy, u32, u64) -> Duration = BackoffPolicy::delay_jittered;
    for seed in [0u64, 7, 1_000_003] {
        let wait = backoff.delay_jittered(1, seed);
        assert!(wait >= backoff.delay(1));
        assert!(wait <= (backoff.delay(1) * 3).min(backoff.max));
        assert_eq!(
            wait,
            backoff.delay_jittered(1, seed),
            "jitter must be seeded"
        );
    }
}

#[test]
fn telemetry_sink_identity_is_pinned() {
    use iot_telemetry::TelemetryHandle;

    // Checkpoint decoding shares a live model only with loads for the
    // same sink; this is how two handles' sinks compare.
    let _same_sink: fn(&TelemetryHandle, &TelemetryHandle) -> bool = TelemetryHandle::same_sink;
    let live = TelemetryHandle::with_noop_sink();
    assert!(live.same_sink(&live.clone()));
    assert!(!live.same_sink(&TelemetryHandle::with_noop_sink()));
    assert!(TelemetryHandle::disabled().same_sink(&TelemetryHandle::disabled()));
    assert!(!live.same_sink(&TelemetryHandle::disabled()));
}

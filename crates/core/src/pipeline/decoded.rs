//! Decoded models shared by content.
//!
//! [`load_model`](super::checkpoint::load_model) decodes a checkpoint at
//! most once per live model: when its bytes equal those of a model that
//! is still alive and the telemetry sink is the same, it returns a clone
//! of that model's handle instead of building a second copy. Resident
//! model memory then follows the number of distinct models, not the
//! number of loads — a hub recovering 256 homes that share four models
//! parses four checkpoints.
//!
//! The key is the full checkpoint text plus the sink, never a checksum:
//! a CRC collision must not hand one home another home's model, so every
//! hit is confirmed by comparing the whole text. The sink is part of the
//! key because a model's monitors report to the handle it was decoded
//! with. Entries hold their models weakly, so the registry never keeps a
//! model alive; a text's dead entries are pruned when it gains a new one,
//! and every dead entry by a sweep whenever the number of texts has
//! doubled since the last one.

use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError, Weak};

use iot_telemetry::TelemetryHandle;

use super::{FittedModel, ModelInner};
use crate::CausalIotError;

/// Number of texts below which inserts never sweep.
const MIN_SWEEP: usize = 64;

#[derive(Default)]
struct Registry {
    /// Decoded models by checkpoint text, one per telemetry sink.
    models: HashMap<Box<str>, Vec<Weak<ModelInner>>>,
    /// Number of texts at which the next insert sweeps out dead entries.
    sweep_at: usize,
}

fn is_live(model: &Weak<ModelInner>) -> bool {
    model.strong_count() > 0
}

impl Registry {
    fn find(&self, text: &str, telemetry: &TelemetryHandle) -> Option<FittedModel> {
        self.models.get(text)?.iter().find_map(|model| {
            let inner = model.upgrade()?;
            inner
                .telemetry
                .same_sink(telemetry)
                .then_some(FittedModel { inner })
        })
    }

    fn insert(&mut self, text: &str, model: &FittedModel) {
        if self.models.len() >= self.sweep_at {
            self.models.retain(|_, models| {
                models.retain(is_live);
                !models.is_empty()
            });
            self.sweep_at = (2 * self.models.len()).max(MIN_SWEEP);
        }
        let model = Arc::downgrade(&model.inner);
        match self.models.get_mut(text) {
            Some(models) => {
                models.retain(is_live);
                models.push(model);
            }
            None => {
                self.models.insert(text.into(), vec![model]);
            }
        }
    }
}

static REGISTRY: LazyLock<Mutex<Registry>> = LazyLock::new(Mutex::default);

fn registry() -> MutexGuard<'static, Registry> {
    // No update can leave the registry inconsistent part-way, so the
    // guard of a panicked holder is safe to reuse.
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The live model decoded from `text` for `telemetry`'s sink, if there is
/// one; otherwise the result of `decode`, registered for later decodes.
/// A failed decode registers nothing.
pub(super) fn decode_shared(
    text: &str,
    telemetry: &TelemetryHandle,
    decode: impl FnOnce() -> Result<FittedModel, CausalIotError>,
) -> Result<FittedModel, CausalIotError> {
    if let Some(model) = registry().find(text, telemetry) {
        return Ok(model);
    }
    let model = decode()?;
    let mut registry = registry();
    // Another thread may have decoded the same text meanwhile.
    if let Some(shared) = registry.find(text, telemetry) {
        return Ok(shared);
    }
    registry.insert(text, &model);
    Ok(model)
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::PathBuf;

    use iot_model::{Attribute, BinaryEvent, DeviceId, DeviceRegistry, Room, Timestamp};

    use super::*;
    use crate::persist::{crc32, find_crc_footer, CRC_FOOTER_PREFIX};
    use crate::pipeline::CausalIot;

    fn fitted() -> FittedModel {
        let mut reg = DeviceRegistry::new();
        reg.add("PE_hall", Attribute::PresenceSensor, Room::new("hall"))
            .unwrap();
        reg.add("S_lamp", Attribute::Switch, Room::new("hall"))
            .unwrap();
        let events: Vec<BinaryEvent> = (0..60u64)
            .map(|i| {
                BinaryEvent::new(
                    Timestamp::from_secs(i * 30),
                    DeviceId::from_index((i % 2) as usize),
                    (i / 2) % 2 == 0,
                )
            })
            .collect();
        CausalIot::builder()
            .tau(2)
            .build()
            .fit_binary(&reg, &events)
            .expect("fits")
    }

    /// The same model under different bytes: a comment line after the
    /// magic, which the parser skips.
    fn with_comment(text: &str, note: &str) -> String {
        let (magic, rest) = text.split_once('\n').expect("multi-line checkpoint");
        format!("{magic}\n# {note}\n{rest}")
    }

    fn load(text: &str, telemetry: &TelemetryHandle) -> FittedModel {
        FittedModel::load_with_telemetry(text, telemetry).expect("loads")
    }

    /// Distinct texts in the registry, with live or dead entries.
    fn registry_len() -> usize {
        registry().models.len()
    }

    /// Entries, live or dead, registered for exactly `text`.
    fn entries_for(text: &str) -> usize {
        registry().models.get(text).map_or(0, Vec::len)
    }

    /// A scratch file that cleans itself up even when the test panics.
    struct ScratchFile(PathBuf);

    impl ScratchFile {
        fn new(tag: &str) -> Self {
            ScratchFile(std::env::temp_dir().join(format!(
                "causaliot_decoded_{tag}_{}.model",
                std::process::id()
            )))
        }
    }

    impl Drop for ScratchFile {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
        }
    }

    #[test]
    fn the_same_bytes_share_one_model() {
        let text = with_comment(&fitted().save(), "same bytes");
        let a = load(&text, &TelemetryHandle::disabled());
        let b = load(&text, &TelemetryHandle::disabled());
        assert!(a.shares_allocation_with(&b));
        assert_eq!(entries_for(&text), 1);

        let file = ScratchFile::new("same_bytes");
        a.save_to_path(&file.0).expect("saves");
        let disabled = TelemetryHandle::disabled();
        let c = FittedModel::load_from_path_with_telemetry(&file.0, &disabled).expect("loads");
        let d = FittedModel::load_from_path_with_telemetry(&file.0, &disabled).expect("loads");
        assert!(c.shares_allocation_with(&d));
        // The footered file is other bytes than the bare document.
        assert!(!c.shares_allocation_with(&a));
    }

    #[test]
    fn different_bytes_or_a_different_live_sink_are_not_shared() {
        let text = with_comment(&fitted().save(), "different");
        let other = with_comment(&text, "one more comment");
        let disabled = TelemetryHandle::disabled();
        let base = load(&text, &disabled);
        assert!(!base.shares_allocation_with(&load(&other, &disabled)));

        let live = TelemetryHandle::with_noop_sink();
        let on_live = load(&text, &live);
        assert!(!on_live.shares_allocation_with(&base));
        assert!(on_live.telemetry().same_sink(&live));
        assert!(on_live.shares_allocation_with(&load(&text, &live.clone())));
        let elsewhere = load(&text, &TelemetryHandle::with_noop_sink());
        assert!(!elsewhere.shares_allocation_with(&on_live));
        assert_eq!(entries_for(&text), 3);
    }

    #[test]
    fn a_bit_flipped_copy_of_a_live_model_fails_closed_with_its_offset() {
        let model = fitted();
        let disabled = TelemetryHandle::disabled();

        // Footered: the checksum catches the flip at the footer's offset.
        let file = ScratchFile::new("flip_footered");
        model.save_to_path(&file.0).expect("saves");
        let _live = FittedModel::load_from_path_with_telemetry(&file.0, &disabled).expect("loads");
        let on_disk = fs::read_to_string(&file.0).unwrap();
        let footer_start = find_crc_footer(&on_disk).expect("footered");
        let copy = ScratchFile::new("flip_footered_copy");
        let expect_checksum_failure = |bytes: &[u8]| {
            fs::write(&copy.0, bytes).unwrap();
            match FittedModel::load_from_path_with_telemetry(&copy.0, &disabled).unwrap_err() {
                CausalIotError::Corrupt { offset, reason, .. } => {
                    assert_eq!(offset, footer_start as u64, "{reason}");
                    assert!(reason.contains("checksum mismatch"), "{reason}");
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        };
        let mut flipped = on_disk.clone().into_bytes();
        flipped[footer_start / 2] ^= 0x01;
        expect_checksum_failure(&flipped);

        // A text load skips the footer, so a model can be alive for a
        // document whose footer is wrong; a file of those bytes must still
        // fail its checksum.
        let body = &on_disk[..footer_start];
        let wrong = crc32(body.as_bytes()) ^ 1;
        let wrong_footer = format!("{body}{CRC_FOOTER_PREFIX}{wrong:08x}\n");
        let _live = load(&wrong_footer, &disabled);
        expect_checksum_failure(wrong_footer.as_bytes());

        // Footerless: the parser rejects the flipped record at its line.
        let text = with_comment(&model.save(), "footerless");
        let _live = load(&text, &disabled);
        let line = text.find("config.k_max").unwrap();
        let mut flipped = text.clone().into_bytes();
        flipped[line] ^= 0x01; // `config` -> `bonfig`
        let copy = ScratchFile::new("flip_footerless_copy");
        fs::write(&copy.0, &flipped).unwrap();
        match FittedModel::load_from_path_with_telemetry(&copy.0, &disabled).unwrap_err() {
            CausalIotError::Corrupt { offset, reason, .. } => {
                assert_eq!(offset, line as u64, "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let flipped = String::from_utf8(flipped).unwrap();
        assert!(FittedModel::load_with_telemetry(&flipped, &disabled).is_err());
        assert_eq!(
            entries_for(&flipped),
            0,
            "a failed decode registers nothing"
        );
    }

    #[test]
    fn the_registry_does_not_grow_over_load_drop_cycles() {
        let text = with_comment(&fitted().save(), "cycles");
        let disabled = TelemetryHandle::disabled();
        for _ in 0..1000 {
            drop(load(&text, &disabled));
            assert_eq!(entries_for(&text), 1);
        }
        for cycle in 0..1000 {
            drop(load(
                &with_comment(&text, &format!("cycle {cycle}")),
                &disabled,
            ));
        }
        // Without pruning this would be over 1000 texts; other tests'
        // models are the only live ones.
        assert!(registry_len() <= 2 * MIN_SWEEP, "{}", registry_len());
    }
}

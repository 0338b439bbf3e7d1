//! Live runtime-state serialisation for monitors (`causaliot-runtime v1`).
//!
//! A v2 checkpoint ([`super::checkpoint`]) persists everything a monitor
//! is *built* from — the fitted model. It deliberately excludes what a
//! monitor *becomes* while serving: the detector's always-on stats, the
//! phantom state machine's transition rings, the in-progress k-sequence
//! tracking window `W`, the next stream ordinal, and the preprocessing
//! drop counters. Restarting from a checkpoint alone therefore forgets
//! any half-tracked collective anomaly and resets the stream position.
//!
//! This module closes that gap with a second, much smaller document: the
//! **runtime-state snapshot**. [`OwnedMonitor::export_runtime_state`]
//! serialises exactly the runtime-mutable fields; restoring them onto a
//! *freshly built* monitor from the same model
//! ([`OwnedMonitor::restore_runtime_state`]) yields a
//! monitor whose subsequent verdicts are **bit-identical** to the
//! exported one's. Everything derivable from the model — dense score
//! tables, DIG handle, detector config, telemetry instruments — is
//! rebuilt, not persisted.
//!
//! ## Grammar (line-oriented, one record per line)
//!
//! ```text
//! causaliot-runtime v1
//! stats 812 3 1 2                  # events, contextual, collective, max_tracking
//! drops 4 0 1                      # duplicate, extreme, non-finite
//! next_ordinal 812
//! pm 2 3 812 1 0                   # tau, devices, step, last_dev, last_old
//! pm.state 010                     # current system state, one 0/1 per device
//! pm.newest 2 0 1                  # newest ring slot per device
//! pm.ring 0 1624 1621 1623         # device, tau+1 packed (step<<1|value) entries
//! pm.ring 1 ...
//! w 1                              # tracked anomaly window length (< k_max)
//! w.event 811 48660000 1 1 0.9375 2  # ordinal, millis, device, value, score, #causes
//! w.cause 0 1 0                    # cause device, lag, value
//! end
//! ```
//!
//! Floats use Rust's `{:?}` formatting (shortest decimal round-tripping
//! to identical bits), so export → restore → export is byte-stable —
//! the same idiom, and the same crash-safety envelope
//! ([`crate::persist`]), as the v2 checkpoint format. The serving layer
//! (`iot-serve`) embeds this document inside its per-home snapshot files
//! alongside its own sections (verdict history, drift window, WAL
//! epoch).

use std::fmt::Write as _;

use crate::monitor::{AnomalousEvent, DetectorStats, PhantomStateMachine};
use crate::persist::{push_bits, read_anomalous_event, write_anomalous_event, LineReader, Record};
use crate::CausalIotError;

use super::OwnedMonitor;

pub(super) const MAGIC: &str = "causaliot-runtime v1";

impl OwnedMonitor {
    /// Serialises the monitor's **runtime-mutable** state — detector
    /// stats, preprocessing drop counters, stream ordinal, phantom state
    /// machine, and the in-flight collective tracking window — as a
    /// byte-stable `causaliot-runtime v1` line document.
    ///
    /// The document is the live-state counterpart of a v2 checkpoint:
    /// restoring it onto a fresh monitor built from the *same* fitted
    /// model ([`restore_runtime_state`](Self::restore_runtime_state))
    /// yields bit-identical subsequent verdicts. Everything derivable
    /// from the model (score tables, config, telemetry instruments) is
    /// rebuilt rather than persisted, so documents are small and
    /// model-versioned by construction.
    pub fn export_runtime_state(&self) -> String {
        let mut out = String::new();
        let stats = self.detector.stats();
        let (pm, w, next_ordinal) = self.detector.runtime_parts();
        let (step, current, hist, newest, last_dev, last_old) = pm.snapshot_parts();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(
            out,
            "stats {} {} {} {}",
            stats.events, stats.contextual_alarms, stats.collective_alarms, stats.max_tracking_len
        );
        let _ = writeln!(
            out,
            "drops {} {} {}",
            self.dropped_duplicate, self.dropped_extreme, self.dropped_non_finite
        );
        let _ = writeln!(out, "next_ordinal {next_ordinal}");
        let n = current.len();
        let _ = writeln!(
            out,
            "pm {} {} {} {} {}",
            pm.tau(),
            n,
            step,
            last_dev,
            last_old as u8
        );
        out.push_str("pm.state ");
        push_bits(&mut out, current);
        out.push('\n');
        out.push_str("pm.newest");
        for &slot in newest {
            let _ = write!(out, " {slot}");
        }
        out.push('\n');
        let cap = pm.tau() + 1;
        for d in 0..n {
            let _ = write!(out, "pm.ring {d}");
            for &entry in &hist[d * cap..(d + 1) * cap] {
                let _ = write!(out, " {entry}");
            }
            out.push('\n');
        }
        let _ = writeln!(out, "w {}", w.len());
        for tracked in w {
            write_anomalous_event(&mut out, "w.event", "w.cause", tracked);
        }
        let _ = writeln!(out, "end");
        out
    }

    /// Restores runtime state previously captured with
    /// [`export_runtime_state`](Self::export_runtime_state),
    /// overwriting this monitor's detector stats, drop counters,
    /// stream ordinal, phantom state machine, and tracking window.
    ///
    /// The monitor must have been built from the same fitted model
    /// that produced the document (same τ and device count — enforced;
    /// same learned parameters — the caller's contract, normally
    /// guaranteed by persisting the model checkpoint alongside).
    ///
    /// # Errors
    ///
    /// Fails closed on any malformed, truncated, or shape-mismatched
    /// document, reporting the offending line; the monitor is left
    /// untouched on error. That includes a tracking window no detector
    /// can hold: Algorithm 2 flushes `W` as soon as it reaches `k_max`,
    /// so a `w` header must declare fewer than `k_max` records and be
    /// followed by exactly that many `w.event` records.
    pub fn restore_runtime_state(&mut self, text: &str) -> Result<(), CausalIotError> {
        let expect_n = self.detector.current_state().len();
        let expect_tau = self.detector.runtime_parts().0.tau();
        let cap = expect_tau + 1;
        let k_max = self.detector.config().k_max;

        let mut reader = LineReader::new(text);
        reader.magic(MAGIC)?;
        let mut stats: Option<DetectorStats> = None;
        let mut drops: Option<[u64; 3]> = None;
        let mut next_ordinal: Option<u64> = None;
        let mut pm_head: Option<(u64, u32, bool)> = None;
        let mut state = None;
        let mut newest: Option<Vec<u32>> = None;
        let mut hist: Vec<Option<Vec<u64>>> = vec![None; expect_n];
        // The tracked window, the count its `w` header declares, and the
        // header (for errors that name it).
        let mut w: Option<(Vec<AnomalousEvent>, usize, Record<'_>)> = None;
        let mut saw_end = false;

        while let Some(mut record) = reader.next_record() {
            if saw_end {
                return Err(record.error("content after `end`"));
            }
            match record.tag() {
                "stats" => {
                    stats = Some(DetectorStats {
                        events: record.counter("stats.events")?,
                        contextual_alarms: record.counter("stats.contextual")?,
                        collective_alarms: record.counter("stats.collective")?,
                        max_tracking_len: record.num("stats.max_tracking")?,
                    });
                }
                "drops" => {
                    drops = Some([
                        record.counter("drops.duplicate")?,
                        record.counter("drops.extreme")?,
                        record.counter("drops.non_finite")?,
                    ]);
                }
                "next_ordinal" => next_ordinal = Some(record.counter("next_ordinal")?),
                "pm" => {
                    let tau: usize = record.num("pm.tau")?;
                    let n: usize = record.num("pm.devices")?;
                    if tau != expect_tau || n != expect_n {
                        return Err(record.error(format!(
                            "snapshot shape (τ {tau}, {n} devices) does not match \
                             the monitor (τ {expect_tau}, {expect_n} devices)"
                        )));
                    }
                    pm_head = Some((
                        record.counter("pm.step")?,
                        record.num("pm.last_dev")?,
                        record.bit("pm.last_old")?,
                    ));
                }
                "pm.state" => state = Some(record.bits(expect_n, "pm.state")?),
                "pm.newest" => {
                    let slots = record
                        .rest()
                        .map(|token| record.parse::<u32>(token, "pm.newest slot"))
                        .collect::<Result<Vec<u32>, _>>()?;
                    if slots.len() != expect_n || slots.iter().any(|&s| s as usize >= cap) {
                        return Err(
                            record.error(format!("pm.newest needs {expect_n} slots below {cap}"))
                        );
                    }
                    newest = Some(slots);
                }
                "pm.ring" => {
                    let d: usize = record.num("pm.ring device")?;
                    let ring = hist
                        .get_mut(d)
                        .ok_or_else(|| record.error(format!("pm.ring device {d} out of range")))?;
                    let entries = record
                        .rest()
                        .map(|token| record.parse::<u64>(token, "pm.ring entry"))
                        .collect::<Result<Vec<u64>, _>>()?;
                    if entries.len() != cap {
                        return Err(record.error(format!(
                            "pm.ring needs {cap} entries, got {}",
                            entries.len()
                        )));
                    }
                    *ring = Some(entries);
                }
                "w" => {
                    let len = record.count("w length")?;
                    if len >= k_max {
                        return Err(record
                            .error(format!("w holds {len} records; W flushes at k_max {k_max}")));
                    }
                    w = Some((Vec::with_capacity(len), len, record.clone()));
                }
                "w.event" => {
                    let (events, len, _) = w
                        .as_mut()
                        .ok_or_else(|| record.error("w.event before w header"))?;
                    if events.len() == *len {
                        return Err(
                            record.error(format!("w.event beyond the w header's {len} records"))
                        );
                    }
                    let lags = 1..=expect_tau;
                    let event =
                        read_anomalous_event(&mut reader, record, "w.cause", expect_n, lags);
                    events.push(event?);
                    continue;
                }
                "end" => saw_end = true,
                other => return Err(record.error(format!("unknown record `{other}`"))),
            }
            record.done()?;
        }

        // Missing sections are reported with line 0; path-attaching
        // wrappers map those to truncation, mirroring the checkpoint
        // loader's contract.
        if !saw_end {
            return Err(reader.missing("`end` sentinel"));
        }
        let stats = stats.ok_or_else(|| reader.missing("stats record"))?;
        let drops = drops.ok_or_else(|| reader.missing("drops record"))?;
        let next_ordinal = next_ordinal.ok_or_else(|| reader.missing("next_ordinal"))?;
        let (step, last_dev, last_old) = pm_head.ok_or_else(|| reader.missing("pm record"))?;
        let state = state.ok_or_else(|| reader.missing("pm.state record"))?;
        let newest = newest.ok_or_else(|| reader.missing("pm.newest record"))?;
        let mut flat_hist = Vec::with_capacity(expect_n * cap);
        for (d, ring) in hist.into_iter().enumerate() {
            let ring = ring.ok_or_else(|| reader.missing(format_args!("pm.ring {d} record")))?;
            flat_hist.extend_from_slice(&ring);
        }
        let (w, len, header) = w.ok_or_else(|| reader.missing("w record"))?;
        if w.len() != len {
            return Err(header.error(format!("w declares {len} records, found {}", w.len())));
        }
        let pm = PhantomStateMachine::from_snapshot_parts(
            expect_tau, step, state, flat_hist, newest, last_dev, last_old,
        );
        self.detector.restore_runtime(pm, w, next_ordinal, stats);
        [
            self.dropped_duplicate,
            self.dropped_extreme,
            self.dropped_non_finite,
        ] = drops;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CausalIot;
    use iot_model::{Attribute, BinaryEvent, DeviceId, DeviceRegistry, Room, Timestamp};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn fitted() -> (DeviceRegistry, crate::pipeline::FittedModel) {
        let mut reg = DeviceRegistry::new();
        reg.add("PE_room", Attribute::PresenceSensor, Room::new("room"))
            .unwrap();
        reg.add("S_lamp", Attribute::Switch, Room::new("room"))
            .unwrap();
        let pe = reg.id_of("PE_room").unwrap();
        let lamp = reg.id_of("S_lamp").unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut events = Vec::new();
        for i in 0..300u64 {
            let t = i * 60;
            let on = rng.gen_bool(0.5);
            events.push(BinaryEvent::new(Timestamp::from_secs(t), pe, on));
            if rng.gen_bool(0.9) {
                events.push(BinaryEvent::new(Timestamp::from_secs(t + 15), lamp, on));
            }
        }
        let model = CausalIot::builder()
            .tau(2)
            .k_max(3)
            .build()
            .fit_binary(&reg, &events)
            .unwrap();
        (reg, model)
    }

    fn stream(seed: u64, len: u64) -> Vec<BinaryEvent> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|i| {
                BinaryEvent::new(
                    Timestamp::from_secs(400_000 + i * 30),
                    DeviceId::from_index(rng.gen_range(0..2)),
                    rng.gen_bool(0.5),
                )
            })
            .collect()
    }

    /// A ghost activation: the lamp switching on right after presence
    /// went off opens `W`.
    fn ghost(reg: &DeviceRegistry) -> [BinaryEvent; 2] {
        let pe = reg.id_of("PE_room").unwrap();
        let lamp = reg.id_of("S_lamp").unwrap();
        [
            BinaryEvent::new(Timestamp::from_secs(500_000), pe, false),
            BinaryEvent::new(Timestamp::from_secs(500_060), lamp, true),
        ]
    }

    #[test]
    fn restored_monitor_continues_bit_identically() {
        let (_reg, model) = fitted();
        let mut original = model.clone().into_monitor();
        for &event in &stream(11, 157) {
            original.observe(event);
        }
        let doc = original.export_runtime_state();

        let mut restored = model.clone().into_monitor();
        restored.restore_runtime_state(&doc).expect("restore");
        assert_eq!(restored.current_state(), original.current_state());
        assert_eq!(restored.tracking_len(), original.tracking_len());

        // The decisive property: every subsequent verdict is identical.
        for &event in &stream(12, 157) {
            assert_eq!(original.observe(event), restored.observe(event));
        }
    }

    #[test]
    fn export_is_byte_stable_across_restore() {
        let (_reg, model) = fitted();
        let mut original = model.clone().into_monitor();
        for &event in &stream(21, 93) {
            original.observe(event);
        }
        let doc = original.export_runtime_state();
        let mut restored = model.clone().into_monitor();
        restored.restore_runtime_state(&doc).expect("restore");
        assert_eq!(restored.export_runtime_state(), doc);
    }

    #[test]
    fn fresh_monitor_round_trips_with_tracking_in_flight() {
        let (reg, model) = fitted();
        let mut original = model.clone().into_monitor();
        // Open a tracking chain (ghost activation) so `W` is non-empty
        // and carries cause context.
        for event in ghost(&reg) {
            original.observe(event);
        }
        let doc = original.export_runtime_state();
        let mut restored = model.clone().into_monitor();
        restored.restore_runtime_state(&doc).expect("restore");
        assert_eq!(restored.tracking_len(), original.tracking_len());
        for &event in &stream(41, 40) {
            assert_eq!(original.observe(event), restored.observe(event));
        }
        // Distribution summaries are NaN when telemetry is disabled (and
        // NaN != NaN), so compare the counter fields individually.
        let (a, b) = (original.report(), restored.report());
        assert_eq!(a.events_observed, b.events_observed);
        assert_eq!(a.contextual_alarms, b.contextual_alarms);
        assert_eq!(a.collective_alarms, b.collective_alarms);
        assert_eq!(a.max_tracking_len, b.max_tracking_len);
    }

    #[test]
    fn exported_state_does_not_depend_on_telemetry() {
        use crate::pipeline::FittedModel;
        use iot_telemetry::{MemorySink, TelemetryHandle};

        let (reg, model) = fitted();
        let text = model.save();
        let live = TelemetryHandle::new(Box::new(MemorySink::new()));
        let monitor = |telemetry: &TelemetryHandle| {
            FittedModel::load_with_telemetry(&text, telemetry)
                .expect("load")
                .into_monitor()
        };
        type Path = fn(&mut OwnedMonitor, &[BinaryEvent], &mut usize);
        let paths: [(&str, Path); 2] = [
            ("stats-only", |m, events, scored| {
                m.observe_batch_stats_only(events, scored)
            }),
            ("scores-only", |m, events, scored| {
                m.observe_batch_scores_only(events, scored, &mut |_, _| {})
            }),
        ];
        for (name, path) in paths {
            let mut instrumented = monitor(&live);
            let mut plain = monitor(&TelemetryHandle::disabled());
            for m in [&mut instrumented, &mut plain] {
                let mut scored = 0;
                path(m, &ghost(&reg), &mut scored);
                assert_eq!(scored, 2, "{name}");
                assert_eq!(m.tracking_len(), 1, "{name}: the ghost must open W");
            }
            assert_eq!(
                instrumented.export_runtime_state(),
                plain.export_runtime_state(),
                "{name}: the persisted state depends on telemetry"
            );
        }
    }

    #[test]
    fn impossible_tracking_windows_fail_closed() {
        let (reg, model) = fitted();
        let mut original = model.clone().into_monitor();
        for event in ghost(&reg) {
            original.observe(event);
        }
        assert_eq!(original.tracking_len(), 1);
        let doc = original.export_runtime_state();
        // Split the export around its one tracked record.
        let head = &doc[..doc.find("\nw 1\n").expect("a one-record W") + 1];
        let record = &doc[head.len() + "w 1\n".len()..doc.rfind("end\n").unwrap()];
        let header_line = head.lines().count() + 1;
        let record_lines = record.lines().count();
        let forge =
            |header: &str, copies: usize| format!("{head}{header}\n{}end\n", record.repeat(copies));
        assert_eq!(forge("w 1", 1), doc);

        let rejects = |text: String, line: usize| {
            let mut monitor = model.clone().into_monitor();
            let before = monitor.export_runtime_state();
            match monitor.restore_runtime_state(&text) {
                Err(CausalIotError::Model(iot_model::ModelError::ParseLog {
                    line: at, ..
                })) => {
                    assert_eq!(at, line, "wrong line named for:\n{text}")
                }
                other => panic!("expected a parse error at line {line}, got {other:?}"),
            }
            assert_eq!(monitor.export_runtime_state(), before, "monitor touched");
        };
        // Algorithm 2 flushes W when it reaches k_max (3): a window of
        // k_max records cannot exist.
        rejects(forge("w 3", 3), header_line);
        // The header's count must match its records, both ways.
        rejects(forge("w 2", 1), header_line);
        rejects(forge("w 1", 2), header_line + 1 + record_lines);
        rejects(forge("w 0", 1), header_line + 1);
    }

    #[test]
    fn corrupt_documents_fail_closed() {
        let (_reg, model) = fitted();
        let mut monitor = model.clone().into_monitor();
        for &event in &stream(51, 80) {
            monitor.observe(event);
        }
        let doc = monitor.export_runtime_state();

        let check = |mutation: &dyn Fn(&str) -> String| {
            let mut fresh = model.clone().into_monitor();
            assert!(fresh.restore_runtime_state(&mutation(&doc)).is_err());
        };
        // Bad magic.
        check(&|d| d.replacen("causaliot-runtime v1", "causaliot-runtime v9", 1));
        // Missing sections (drop the `end` sentinel / a pm.ring line).
        check(&|d| d.replacen("end\n", "", 1));
        check(&|d| d.replacen("pm.ring 0", "# pm.ring 0", 1));
        // Garbage values.
        check(&|d| d.replacen("stats ", "stats x ", 1));
        // Shape mismatch.
        check(&|d| d.replacen("pm 2 2 ", "pm 3 2 ", 1));
    }
}

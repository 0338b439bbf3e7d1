//! Plain-text persistence for fitted interaction graphs.
//!
//! A deployed monitor fits once on weeks of history and then validates
//! events for months; this module serialises a mined [`Dig`] (plus the
//! calibrated threshold) to a small line-oriented text format so a fitted
//! model can be stored next to the platform's configuration and reloaded
//! without re-mining. The format is versioned, diff-friendly, and carries
//! exact CPT counts, so a round-trip reproduces scores bit-for-bit.
//!
//! ```text
//! causaliot-dig v1
//! tau 2
//! devices 3
//! threshold 0.9942          # shortest round-trippable f64 form
//! causes 2 1:1 2:2          # outcome device, then cause device:lag pairs
//! cpt 2 0 40 3              # outcome device, context code, off-count, on-count
//! ...
//! ```
//!
//! The threshold is written with Rust's `{:?}` float formatting — the
//! shortest decimal string that parses back to the exact same bits — so a
//! load→save→load cycle is byte-stable even for values like `0.1 + 0.2`.

use std::fmt::Write as _;

use iot_model::DeviceId;

use super::{Cpt, Dig, LaggedVar};
use crate::persist::LineReader;
use crate::CausalIotError;

const MAGIC: &str = "causaliot-dig v1";
/// The largest τ a document may declare: a monitor keeps `τ + 1` states
/// per device, and the paper's τ rule picks from `1..=8` by default.
const MAX_TAU: usize = 1024;
/// The most causes a device may have: a dense CPT holds `2^causes` rows.
const MAX_CAUSES: usize = 24;

/// Serialises a DIG and its calibrated threshold.
pub fn save_dig(dig: &Dig, threshold: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "tau {}", dig.tau());
    let _ = writeln!(out, "devices {}", dig.num_devices());
    let _ = writeln!(out, "threshold {threshold:?}");
    for device in 0..dig.num_devices() {
        let id = DeviceId::from_index(device);
        let causes = dig.causes_of(id);
        let _ = write!(out, "causes {device}");
        for cause in causes {
            let _ = write!(out, " {}:{}", cause.device.index(), cause.lag);
        }
        out.push('\n');
        let cpt = dig.cpt(id);
        for code in 0..cpt.num_contexts() {
            let [off, on] = cpt.counts(code);
            if off != 0 || on != 0 {
                let _ = writeln!(out, "cpt {device} {code} {off} {on}");
            }
        }
    }
    out
}

/// Restores a DIG and threshold from [`save_dig`] output.
///
/// # Errors
///
/// Returns an error for wrong magic, malformed lines, or inconsistent
/// indices.
pub fn load_dig(text: &str) -> Result<(Dig, f64), CausalIotError> {
    read_dig(&mut LineReader::new(text), 0.0, None)
}

/// Reads a DIG document from `reader` through the end of its text,
/// restoring CPTs with the given Laplace smoothing pseudo-count (the
/// format carries raw counts only; a full-model checkpoint re-applies its
/// configured smoothing on load). A checkpoint passes the device count
/// it declares as `devices`, which the DIG must cover. Every record
/// [`Dig::new`] would refuse is refused here first, naming its line.
pub(crate) fn read_dig(
    reader: &mut LineReader<'_>,
    smoothing: f64,
    devices: Option<usize>,
) -> Result<(Dig, f64), CausalIotError> {
    reader.magic(MAGIC)?;
    let mut tau: Option<usize> = None;
    let mut num_devices: Option<usize> = None;
    let mut threshold: Option<f64> = None;
    let mut causes: Vec<Vec<LaggedVar>> = Vec::new();
    let mut cpts: Vec<Cpt> = Vec::new();

    while let Some(mut record) = reader.next_record() {
        match record.tag() {
            "tau" => {
                if tau.is_some() {
                    return Err(record.error("duplicate tau record"));
                }
                let t = record.num("tau")?;
                if t > MAX_TAU {
                    return Err(record.error(format!("tau {t} exceeds {MAX_TAU}")));
                }
                tau = Some(t);
            }
            "devices" => {
                if num_devices.is_some() {
                    return Err(record.error("duplicate devices record"));
                }
                let n = record.count("device count")?;
                if let Some(declared) = devices.filter(|&declared| declared != n) {
                    return Err(record.error(format!(
                        "dig covers {n} devices, the checkpoint declares {declared}"
                    )));
                }
                num_devices = Some(n);
            }
            "threshold" => threshold = Some(record.num("threshold")?),
            "causes" => {
                let device: usize = record.num("outcome device")?;
                let n = num_devices.ok_or_else(|| record.error("causes before devices"))?;
                let tau = tau.ok_or_else(|| record.error("causes before tau"))?;
                if device != cpts.len() || device >= n {
                    return Err(record.error("causes lines out of order"));
                }
                let mut cause_list = Vec::new();
                for pair in record.rest() {
                    let (dev, lag) = pair
                        .split_once(':')
                        .ok_or_else(|| record.error("bad cause pair"))?;
                    let dev: usize = record.parse(dev, "cause device")?;
                    let lag: usize = record.parse(lag, "cause lag")?;
                    if dev >= n || !(1..=tau).contains(&lag) {
                        return Err(record.error(format!("cause {dev}:{lag} out of range")));
                    }
                    if cause_list.len() == MAX_CAUSES {
                        return Err(record.error(format!("more than {MAX_CAUSES} causes")));
                    }
                    cause_list.push(LaggedVar::new(DeviceId::from_index(dev), lag));
                }
                cpts.push(Cpt::new(cause_list.clone(), smoothing));
                causes.push(cause_list);
            }
            "cpt" => {
                let device: usize = record.num("device")?;
                let code: usize = record.num("context code")?;
                let off: u64 = record.num("off-count")?;
                let on: u64 = record.num("on-count")?;
                let cpt = cpts
                    .get_mut(device)
                    .ok_or_else(|| record.error("cpt before its causes line"))?;
                if code >= cpt.num_contexts() {
                    return Err(record.error("context code out of range"));
                }
                // Every sum of counts the scorer forms must fit in a u64.
                (cpt.total_count() - cpt.context_count(code))
                    .checked_add(off)
                    .and_then(|total| total.checked_add(on))
                    .ok_or_else(|| record.error("cpt counts overflow"))?;
                cpt.restore(code, [off, on]);
            }
            other => return Err(record.error(format!("unknown record `{other}`"))),
        }
        record.done()?;
    }
    let tau = tau.ok_or_else(|| reader.missing("tau"))?;
    let n = num_devices.ok_or_else(|| reader.missing("devices"))?;
    let threshold = threshold.ok_or_else(|| reader.missing("threshold"))?;
    if cpts.len() != n {
        return Err(reader.missing("causes lines for some devices"));
    }
    Ok((Dig::new(tau, causes, cpts), threshold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::UnseenContext;

    fn lv(d: usize, lag: usize) -> LaggedVar {
        LaggedVar::new(DeviceId::from_index(d), lag)
    }

    fn sample_dig() -> Dig {
        let causes = vec![vec![], vec![lv(0, 1), lv(1, 2)]];
        let mut cpts: Vec<Cpt> = causes.iter().map(|c| Cpt::new(c.clone(), 0.0)).collect();
        cpts[0].record(0, true);
        cpts[0].record(0, false);
        cpts[1].record(0b01, true);
        cpts[1].record(0b01, true);
        cpts[1].record(0b10, false);
        Dig::new(2, causes, cpts)
    }

    #[test]
    fn round_trip_preserves_scores_exactly() {
        let dig = sample_dig();
        let text = save_dig(&dig, 0.975);
        let (loaded, threshold) = load_dig(&text).expect("parses");
        assert_eq!(threshold, 0.975);
        assert_eq!(loaded.tau(), dig.tau());
        assert_eq!(loaded.num_devices(), dig.num_devices());
        for d in 0..dig.num_devices() {
            let id = DeviceId::from_index(d);
            assert_eq!(loaded.causes_of(id), dig.causes_of(id));
            let (a, b) = (dig.cpt(id), loaded.cpt(id));
            for code in 0..a.num_contexts() {
                for value in [false, true] {
                    assert_eq!(
                        a.prob(code, value, UnseenContext::Marginal).to_bits(),
                        b.prob(code, value, UnseenContext::Marginal).to_bits(),
                        "device {d} code {code} value {value}"
                    );
                }
            }
        }
    }

    #[test]
    fn format_is_human_readable() {
        let text = save_dig(&sample_dig(), 0.9);
        assert!(text.starts_with("causaliot-dig v1\n"));
        assert!(text.contains("tau 2"));
        assert!(text.contains("causes 1 0:1 1:2"));
        assert!(text.contains("cpt 1 1 0 2"));
    }

    #[test]
    fn rejects_corrupt_inputs() {
        assert!(load_dig("").is_err());
        assert!(load_dig("not-a-model\n").is_err());
        let good = save_dig(&sample_dig(), 0.9);
        let truncated: String = good.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(load_dig(&truncated).is_err());
        let corrupted = good.replace("cpt 1 1 0 2", "cpt 1 99 0 2");
        assert!(load_dig(&corrupted).is_err());
        let garbage = good + "wat 1 2 3\n";
        assert!(load_dig(&garbage).is_err());
    }

    #[test]
    fn unknown_version_is_rejected_with_clear_error() {
        let text = save_dig(&sample_dig(), 0.9).replace("causaliot-dig v1", "causaliot-dig v9");
        let err = load_dig(&text).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("unsupported version") && message.contains("v9"),
            "got: {message}"
        );
        // A non-dig header is still a plain magic mismatch.
        let other = load_dig("causaliot-model v2\n").unwrap_err().to_string();
        assert!(other.contains("bad magic"), "got: {other}");
    }

    #[test]
    fn threshold_round_trip_is_byte_stable() {
        // 0.1 + 0.2 has no short decimal form; `{:?}` must still emit a
        // string that parses back to the exact same bits.
        let threshold = 0.1 + 0.2;
        let first = save_dig(&sample_dig(), threshold);
        let (dig, loaded_threshold) = load_dig(&first).expect("parses");
        assert_eq!(loaded_threshold.to_bits(), threshold.to_bits());
        let second = save_dig(&dig, loaded_threshold);
        assert_eq!(first, second, "load→save→load must be byte-stable");
        let (_, third_threshold) = load_dig(&second).expect("parses");
        assert_eq!(third_threshold.to_bits(), threshold.to_bits());
    }

    /// The line a rejected document's error names.
    fn rejected_line(text: &str) -> usize {
        match load_dig(text) {
            Err(CausalIotError::Model(iot_model::ModelError::ParseLog { line, .. })) => line,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    const HEAD: &str = "causaliot-dig v1\ntau 2\ndevices 2\nthreshold 0.5\n";

    #[test]
    fn out_of_range_cause_device_names_its_line() {
        assert_eq!(rejected_line(&format!("{HEAD}causes 0 7:1\ncauses 1\n")), 5);
    }

    #[test]
    fn zero_cause_lag_names_its_line() {
        assert_eq!(rejected_line(&format!("{HEAD}causes 0 1:0\ncauses 1\n")), 5);
    }

    #[test]
    fn cause_lag_beyond_tau_names_its_line() {
        assert_eq!(rejected_line(&format!("{HEAD}causes 0 1:3\ncauses 1\n")), 5);
    }

    #[test]
    fn oversized_cause_set_names_its_line() {
        let pairs = vec!["1:1"; MAX_CAUSES + 1].join(" ");
        assert_eq!(
            rejected_line(&format!("{HEAD}causes 0 {pairs}\ncauses 1\n")),
            5
        );
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let mut text = save_dig(&sample_dig(), 0.9);
        text.push_str("\n# a trailing comment\n\n");
        assert!(load_dig(&text).is_ok());
    }
}

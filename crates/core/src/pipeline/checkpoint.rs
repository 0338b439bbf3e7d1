//! Versioned full-model checkpoints (`causaliot-model v2`).
//!
//! [`crate::graph::save_dig`] persists only the DIG and threshold — enough
//! to score events, but a restored process cannot rebuild a
//! [`FittedModel`]: the fitted preprocessor (binarisation thresholds,
//! three-sigma bands), the pipeline configuration, and the final training
//! state are all lost. This module persists the *complete* model so a
//! fresh process can [`FittedModel::load`] a checkpoint and spawn monitors
//! that are verdict-for-verdict identical to the originals.
//!
//! ## Grammar (line-oriented, one record per line)
//!
//! ```text
//! causaliot-model v2
//! config.q 99.0
//! config.k_max 1
//! config.unseen marginal            # marginal | uniform | max-anomaly
//! config.restart_on_abrupt false
//! config.calibration_fraction 0.0
//! config.preprocess.duplicate_rel_tol 0.02
//! config.preprocess.filter_extremes true
//! config.tau fixed 2                # or: config.tau auto <d> <min> <max>
//! config.miner.alpha 0.001
//! config.miner.max_cond_size 3
//! config.miner.smoothing 0.0
//! config.miner.parallel true
//! config.miner.ci_test g-square     # g-square | pearson-chi2
//! devices 3
//! state 010                         # final training state, one 0/1 per device
//! preprocessor present              # present | absent (fit_binary models)
//! sanitizer.duplicate_rel_tol 0.02
//! sanitizer.filter_extremes true
//! band 1 -1.0 11.0                  # device, lo, hi (numeric devices only)
//! binarizer 0 binary                # binary | responsive | ambient <threshold>
//! binarizer 1 responsive
//! binarizer 2 ambient 152.5
//! dig                               # sentinel: the rest is the embedded
//! causaliot-dig v1                  # v1 document (save_dig output, verbatim)
//! ...
//! ```
//!
//! Every float is written with Rust's `{:?}` formatting (shortest decimal
//! that parses back to identical bits), so a load→save cycle is
//! byte-stable. The embedded DIG carries raw CPT counts; Laplace
//! smoothing from `config.miner.smoothing` is re-applied on load.
//!
//! [`load_model`] also accepts the legacy dig-only `causaliot-dig v1`
//! format: such a model restores with paper-default configuration (τ fixed
//! to the stored graph's lag depth), no preprocessor, and an all-OFF
//! initial state.
//!
//! ## Crash-safe file I/O
//!
//! [`save_model_to_path`] hardens persistence against crashes and bit
//! rot: the document is written to a `<path>.tmp` sibling, fsynced, and
//! atomically renamed over the destination (so an interrupted save at any
//! byte leaves the previous checkpoint intact), and a `# crc32 <hex>`
//! footer — a comment line, invisible to both the v1 and v2 parsers, so
//! existing fixtures stay byte-compatible — lets [`load_model_from_path`]
//! fail closed with [`CausalIotError::Corrupt`] on any flipped bit
//! instead of resurrecting a garbage model. Files without the footer
//! (fixtures from older builds, hand-written documents) still load;
//! truncation and parse failures are reported with the path and byte
//! offset attached ([`CausalIotError::Truncated`] / `Corrupt`).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use iot_model::{DeviceId, SystemState};
use iot_stats::jenks::JenksBinarizer;
use iot_stats::threesigma::ThreeSigmaBand;
use iot_telemetry::{FitReport, TelemetryHandle};

use crate::graph::{load_dig, load_dig_with_smoothing, save_dig, UnseenContext};
use crate::persist::{crc32, find_crc_footer, write_atomic, CRC_FOOTER_PREFIX};
use crate::pipeline::decoded::decode_shared;
use crate::pipeline::{CausalIotConfig, FittedModel, TauChoice};
use crate::preprocess::{DeviceBinarizer, FittedPreprocessor, FittedSanitizer, FittedUnifier};
use crate::CausalIotError;
use iot_stats::gsquare::CiTestKind;

const MAGIC: &str = "causaliot-model v2";
const DIG_SENTINEL: &str = "dig";

/// Serialises a full model to the `causaliot-model v2` text format (see
/// the [module docs](self) for the grammar). [`FittedModel::save`]
/// delegates here.
pub fn save_model(model: &FittedModel) -> String {
    let mut out = String::new();
    let config = model.config();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "config.q {:?}", config.q);
    let _ = writeln!(out, "config.k_max {}", config.k_max);
    let unseen = match config.unseen {
        UnseenContext::Marginal => "marginal",
        UnseenContext::Uniform => "uniform",
        UnseenContext::MaxAnomaly => "max-anomaly",
    };
    let _ = writeln!(out, "config.unseen {unseen}");
    let _ = writeln!(out, "config.restart_on_abrupt {}", config.restart_on_abrupt);
    let _ = writeln!(
        out,
        "config.calibration_fraction {:?}",
        config.calibration_fraction
    );
    let _ = writeln!(
        out,
        "config.preprocess.duplicate_rel_tol {:?}",
        config.preprocess.duplicate_rel_tol
    );
    let _ = writeln!(
        out,
        "config.preprocess.filter_extremes {}",
        config.preprocess.filter_extremes
    );
    match config.tau {
        TauChoice::Fixed(tau) => {
            let _ = writeln!(out, "config.tau fixed {tau}");
        }
        TauChoice::Auto(cfg) => {
            let _ = writeln!(
                out,
                "config.tau auto {:?} {} {}",
                cfg.max_duration_secs, cfg.min_tau, cfg.max_tau
            );
        }
    }
    let _ = writeln!(out, "config.miner.alpha {:?}", config.miner.alpha);
    let _ = writeln!(
        out,
        "config.miner.max_cond_size {}",
        config.miner.max_cond_size
    );
    let _ = writeln!(out, "config.miner.smoothing {:?}", config.miner.smoothing);
    let _ = writeln!(out, "config.miner.parallel {}", config.miner.parallel);
    let ci_test = match config.miner.ci_test {
        CiTestKind::GSquare => "g-square",
        CiTestKind::PearsonChi2 => "pearson-chi2",
    };
    let _ = writeln!(out, "config.miner.ci_test {ci_test}");
    let _ = writeln!(out, "devices {}", model.num_devices());
    let bits: String = model
        .final_train_state()
        .values()
        .iter()
        .map(|&on| if on { '1' } else { '0' })
        .collect();
    let _ = writeln!(out, "state {bits}");
    match model.preprocessor() {
        None => {
            let _ = writeln!(out, "preprocessor absent");
        }
        Some(pp) => {
            let _ = writeln!(out, "preprocessor present");
            let sanitizer = pp.sanitizer();
            let _ = writeln!(
                out,
                "sanitizer.duplicate_rel_tol {:?}",
                sanitizer.duplicate_rel_tol()
            );
            let _ = writeln!(
                out,
                "sanitizer.filter_extremes {}",
                sanitizer.filter_extremes()
            );
            for device in 0..pp.num_devices() {
                if let Some(band) = sanitizer.band(DeviceId::from_index(device)) {
                    let _ = writeln!(out, "band {device} {:?} {:?}", band.lo(), band.hi());
                }
            }
            for (device, rule) in pp.unifier().binarizers().iter().enumerate() {
                match rule {
                    DeviceBinarizer::Binary => {
                        let _ = writeln!(out, "binarizer {device} binary");
                    }
                    DeviceBinarizer::Responsive => {
                        let _ = writeln!(out, "binarizer {device} responsive");
                    }
                    DeviceBinarizer::Ambient(jenks) => {
                        let _ = writeln!(out, "binarizer {device} ambient {:?}", jenks.threshold());
                    }
                }
            }
        }
    }
    let _ = writeln!(out, "{DIG_SENTINEL}");
    out.push_str(&save_dig(model.dig(), model.threshold()));
    out
}

fn parse_err(line: usize, reason: impl Into<String>) -> CausalIotError {
    CausalIotError::Model(iot_model::ModelError::ParseLog {
        line,
        reason: reason.into(),
    })
}

/// CRC32 content hash of a serialised checkpoint document — exactly the
/// value [`save_model_to_path`] stores in the `# crc32` footer (computed
/// over the document *without* the footer line). Content-addressed model
/// repositories key blobs by this hash: because [`save_model`] is
/// byte-stable, equal models hash equally across processes and machines.
pub fn content_hash(document: &str) -> u32 {
    crc32(document.as_bytes())
}

/// Serialises `model` with the `# crc32` footer already appended and
/// returns the document together with its content hash (the footer's
/// value). This is the write-side hook for content-addressed stores: one
/// serialisation yields both the bytes to persist and the key to file
/// them under. [`save_model_to_path`] delegates here.
pub fn save_model_footered(model: &FittedModel) -> (String, u32) {
    let mut text = save_model(model);
    let checksum = crc32(text.as_bytes());
    let _ = writeln!(text, "{CRC_FOOTER_PREFIX}{checksum:08x}");
    (text, checksum)
}

fn io_err(path: &Path, e: &io::Error) -> CausalIotError {
    CausalIotError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    }
}

/// Serialises `model` and writes it to `path` crash-safely: the document
/// plus a `# crc32` footer goes to a `<path>.tmp` sibling, is fsynced,
/// and is atomically renamed over `path` (the parent directory is synced
/// best-effort so the rename itself is durable). A crash at any byte of
/// the write leaves the previous checkpoint at `path` untouched.
/// [`FittedModel::save_to_path`] delegates here.
///
/// # Errors
///
/// [`CausalIotError::Io`] with the path and OS error attached.
pub fn save_model_to_path(model: &FittedModel, path: &Path) -> Result<(), CausalIotError> {
    let (text, _) = save_model_footered(model);
    write_atomic(path, text.as_bytes()).map_err(|e| io_err(path, &e))
}

/// Restores a model from a checkpoint file, verifying the `# crc32`
/// footer when present (files without one — fixtures from older builds,
/// hand-written documents — still load). The checks run before
/// [`load_model`] looks for a live model with the same bytes, so a corrupt
/// file fails closed whatever is alive.
/// [`FittedModel::load_from_path`] delegates here.
///
/// # Errors
///
/// * [`CausalIotError::Io`] — the file could not be read (path and OS
///   error attached).
/// * [`CausalIotError::Truncated`] — the content stops mid-document (no
///   final newline, or a required section is missing); carries the byte
///   offset where it ended.
/// * [`CausalIotError::Corrupt`] — the checksum did not match or a line
///   failed to parse; carries the byte offset of the offending content.
///   A corrupt checkpoint never yields a partially-loaded model.
pub fn load_model_from_path(
    path: &Path,
    telemetry: &TelemetryHandle,
) -> Result<FittedModel, CausalIotError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
    let display = path.display().to_string();
    if text.is_empty() {
        return Err(CausalIotError::Truncated {
            path: display,
            offset: 0,
        });
    }
    if !text.ends_with('\n') {
        // The format is line-oriented and every writer ends with a
        // newline; a missing one is the signature of a torn write.
        return Err(CausalIotError::Truncated {
            path: display,
            offset: text.len() as u64,
        });
    }
    if let Some(footer_start) = find_crc_footer(&text) {
        let footer = text[footer_start..].trim_end();
        let stored = footer
            .strip_prefix(CRC_FOOTER_PREFIX)
            .expect("footer located by prefix");
        let stored =
            u32::from_str_radix(stored.trim(), 16).map_err(|_| CausalIotError::Corrupt {
                path: display.clone(),
                offset: footer_start as u64,
                reason: format!("unparseable checksum footer `{footer}`"),
            })?;
        let computed = crc32(&text.as_bytes()[..footer_start]);
        if stored != computed {
            return Err(CausalIotError::Corrupt {
                path: display,
                offset: footer_start as u64,
                reason: format!("checksum mismatch (stored {stored:08x}, computed {computed:08x})"),
            });
        }
    }
    load_model(&text, telemetry).map_err(|e| attach_context(e, &display, &text))
}

/// Rewrites context-free parse errors into operator-actionable ones: a
/// parse failure on a numbered line becomes [`CausalIotError::Corrupt`]
/// with the path and the line's byte offset; a "missing section" failure
/// (the parsers report those with line 0) means the document ended early
/// and becomes [`CausalIotError::Truncated`].
fn attach_context(e: CausalIotError, path: &str, text: &str) -> CausalIotError {
    let CausalIotError::Model(iot_model::ModelError::ParseLog { line, reason }) = e else {
        return e;
    };
    if line == 0 {
        return CausalIotError::Truncated {
            path: path.to_string(),
            offset: text.len() as u64,
        };
    }
    let offset: usize = text
        .split_inclusive('\n')
        .take(line - 1)
        .map(str::len)
        .sum();
    CausalIotError::Corrupt {
        path: path.to_string(),
        offset: offset as u64,
        reason: format!("line {line}: {reason}"),
    }
}

/// Restores a model persisted by [`save_model`], or a legacy dig-only
/// `causaliot-dig v1` document. [`FittedModel::load`] delegates here.
///
/// When `text` is byte-identical to the text of a model that is still
/// alive and decoded for the same telemetry sink, this returns a clone of
/// that model's handle instead of parsing a second copy; any other text
/// is parsed (see [`FittedModel::load_with_telemetry`]).
///
/// # Errors
///
/// Returns [`CausalIotError::Model`] for unsupported versions, malformed
/// lines, or inconsistent indices, and [`CausalIotError::InvalidConfig`]
/// when the embedded configuration fails validation.
pub fn load_model(text: &str, telemetry: &TelemetryHandle) -> Result<FittedModel, CausalIotError> {
    decode_shared(text, telemetry, || parse_model(text, telemetry))
}

fn parse_model(text: &str, telemetry: &TelemetryHandle) -> Result<FittedModel, CausalIotError> {
    let magic = text.lines().next().unwrap_or("").trim();
    if magic.starts_with("causaliot-dig") {
        return load_v1(text, telemetry);
    }
    if magic != MAGIC {
        if let Some(version) = magic.strip_prefix("causaliot-model ") {
            return Err(parse_err(
                1,
                format!("unsupported version `{version}` (this build reads v2)"),
            ));
        }
        return Err(parse_err(1, format!("bad magic `{magic}`")));
    }

    let mut config = CausalIotConfig::default();
    let mut num_devices: Option<usize> = None;
    let mut state: Option<SystemState> = None;
    let mut preprocessor_present: Option<bool> = None;
    let mut sanitizer_rel_tol: Option<f64> = None;
    let mut sanitizer_filter: Option<bool> = None;
    let mut bands: Vec<Option<ThreeSigmaBand>> = Vec::new();
    let mut binarizers: Vec<Option<DeviceBinarizer>> = Vec::new();
    let mut dig_start: Option<usize> = None;

    for (idx, raw) in text.lines().enumerate().skip(1) {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == DIG_SENTINEL {
            dig_start = Some(idx + 1);
            break;
        }
        let mut parts = line.split_whitespace();
        let key = parts.next().expect("non-empty line");
        let mut next_str = |what: &str| -> Result<&str, CausalIotError> {
            parts
                .next()
                .ok_or_else(|| parse_err(line_no, format!("missing {what}")))
        };
        match key {
            "config.q" => config.q = parse_f64(next_str("q")?, line_no, "q")?,
            "config.k_max" => config.k_max = parse_num(next_str("k_max")?, line_no, "k_max")?,
            "config.unseen" => {
                config.unseen = match next_str("unseen policy")? {
                    "marginal" => UnseenContext::Marginal,
                    "uniform" => UnseenContext::Uniform,
                    "max-anomaly" => UnseenContext::MaxAnomaly,
                    other => {
                        return Err(parse_err(line_no, format!("bad unseen policy `{other}`")))
                    }
                };
            }
            "config.restart_on_abrupt" => {
                config.restart_on_abrupt =
                    parse_bool(next_str("restart_on_abrupt")?, line_no, "restart_on_abrupt")?;
            }
            "config.calibration_fraction" => {
                config.calibration_fraction = parse_f64(
                    next_str("calibration_fraction")?,
                    line_no,
                    "calibration_fraction",
                )?;
            }
            "config.preprocess.duplicate_rel_tol" => {
                config.preprocess.duplicate_rel_tol =
                    parse_f64(next_str("duplicate_rel_tol")?, line_no, "duplicate_rel_tol")?;
            }
            "config.preprocess.filter_extremes" => {
                config.preprocess.filter_extremes =
                    parse_bool(next_str("filter_extremes")?, line_no, "filter_extremes")?;
            }
            "config.tau" => {
                config.tau = match next_str("tau mode")? {
                    "fixed" => TauChoice::Fixed(parse_num(next_str("tau")?, line_no, "tau")?),
                    "auto" => TauChoice::Auto(crate::preprocess::TauConfig {
                        max_duration_secs: parse_f64(
                            next_str("max_duration_secs")?,
                            line_no,
                            "max_duration_secs",
                        )?,
                        min_tau: parse_num(next_str("min_tau")?, line_no, "min_tau")?,
                        max_tau: parse_num(next_str("max_tau")?, line_no, "max_tau")?,
                    }),
                    other => return Err(parse_err(line_no, format!("bad tau mode `{other}`"))),
                };
            }
            "config.miner.alpha" => {
                config.miner.alpha = parse_f64(next_str("alpha")?, line_no, "alpha")?;
            }
            "config.miner.max_cond_size" => {
                config.miner.max_cond_size =
                    parse_num(next_str("max_cond_size")?, line_no, "max_cond_size")?;
            }
            "config.miner.smoothing" => {
                config.miner.smoothing = parse_f64(next_str("smoothing")?, line_no, "smoothing")?;
            }
            "config.miner.parallel" => {
                config.miner.parallel = parse_bool(next_str("parallel")?, line_no, "parallel")?;
            }
            "config.miner.ci_test" => {
                config.miner.ci_test = match next_str("ci_test")? {
                    "g-square" => CiTestKind::GSquare,
                    "pearson-chi2" => CiTestKind::PearsonChi2,
                    other => return Err(parse_err(line_no, format!("bad ci_test `{other}`"))),
                };
            }
            "devices" => {
                let n: usize = parse_num(next_str("device count")?, line_no, "device count")?;
                num_devices = Some(n);
                bands = vec![None; n];
                binarizers = vec![None; n];
            }
            "state" => {
                let bits = next_str("state bits")?;
                let n = num_devices.ok_or_else(|| parse_err(line_no, "state before devices"))?;
                if bits.len() != n {
                    return Err(parse_err(
                        line_no,
                        format!("state has {} bits, expected {n}", bits.len()),
                    ));
                }
                let values: Result<Vec<bool>, CausalIotError> = bits
                    .chars()
                    .map(|c| match c {
                        '0' => Ok(false),
                        '1' => Ok(true),
                        other => Err(parse_err(line_no, format!("bad state bit `{other}`"))),
                    })
                    .collect();
                state = Some(SystemState::from_values(values?));
            }
            "preprocessor" => {
                preprocessor_present = Some(match next_str("preprocessor presence")? {
                    "present" => true,
                    "absent" => false,
                    other => {
                        return Err(parse_err(
                            line_no,
                            format!("bad preprocessor presence `{other}`"),
                        ))
                    }
                });
            }
            "sanitizer.duplicate_rel_tol" => {
                sanitizer_rel_tol = Some(parse_f64(
                    next_str("duplicate_rel_tol")?,
                    line_no,
                    "duplicate_rel_tol",
                )?);
            }
            "sanitizer.filter_extremes" => {
                sanitizer_filter = Some(parse_bool(
                    next_str("filter_extremes")?,
                    line_no,
                    "filter_extremes",
                )?);
            }
            "band" => {
                let device: usize = parse_num(next_str("band device")?, line_no, "band device")?;
                let lo = parse_f64(next_str("band lo")?, line_no, "band lo")?;
                let hi = parse_f64(next_str("band hi")?, line_no, "band hi")?;
                let slot = bands
                    .get_mut(device)
                    .ok_or_else(|| parse_err(line_no, "band device out of range"))?;
                if lo > hi {
                    return Err(parse_err(line_no, "band lo exceeds hi"));
                }
                *slot = Some(ThreeSigmaBand::from_bounds(lo, hi));
            }
            "binarizer" => {
                let device: usize =
                    parse_num(next_str("binarizer device")?, line_no, "binarizer device")?;
                let rule = match next_str("binarizer kind")? {
                    "binary" => DeviceBinarizer::Binary,
                    "responsive" => DeviceBinarizer::Responsive,
                    "ambient" => DeviceBinarizer::Ambient(JenksBinarizer::with_threshold(
                        parse_f64(next_str("ambient threshold")?, line_no, "ambient threshold")?,
                    )),
                    other => {
                        return Err(parse_err(line_no, format!("bad binarizer kind `{other}`")))
                    }
                };
                let slot = binarizers
                    .get_mut(device)
                    .ok_or_else(|| parse_err(line_no, "binarizer device out of range"))?;
                *slot = Some(rule);
            }
            other => return Err(parse_err(line_no, format!("unknown record `{other}`"))),
        }
    }

    let num_devices = num_devices.ok_or_else(|| parse_err(0, "missing devices"))?;
    let final_train_state = state.ok_or_else(|| parse_err(0, "missing state"))?;
    let preprocessor_present =
        preprocessor_present.ok_or_else(|| parse_err(0, "missing preprocessor record"))?;
    let dig_start = dig_start.ok_or_else(|| parse_err(0, "missing dig section"))?;
    config.check()?;

    let preprocessor = if preprocessor_present {
        let rel_tol =
            sanitizer_rel_tol.ok_or_else(|| parse_err(0, "missing sanitizer.duplicate_rel_tol"))?;
        let filter =
            sanitizer_filter.ok_or_else(|| parse_err(0, "missing sanitizer.filter_extremes"))?;
        let rules: Result<Vec<DeviceBinarizer>, CausalIotError> = binarizers
            .into_iter()
            .enumerate()
            .map(|(device, rule)| {
                rule.ok_or_else(|| parse_err(0, format!("missing binarizer for device {device}")))
            })
            .collect();
        Some(FittedPreprocessor::from_parts(
            FittedSanitizer::from_parts(bands, rel_tol, filter),
            FittedUnifier::from_parts(rules?),
        ))
    } else {
        None
    };

    let dig_text: String = text
        .lines()
        .skip(dig_start)
        .flat_map(|line| [line, "\n"])
        .collect();
    let (dig, threshold) = load_dig_with_smoothing(&dig_text, config.miner.smoothing)
        .map_err(|e| rebase_dig_error(e, dig_start))?;
    if dig.num_devices() != num_devices {
        return Err(parse_err(
            0,
            format!(
                "dig covers {} devices, checkpoint declares {num_devices}",
                dig.num_devices()
            ),
        ));
    }

    let fit_report = structural_report(num_devices, dig.tau(), threshold, &dig);
    Ok(FittedModel::assemble(
        dig,
        threshold,
        preprocessor,
        config,
        final_train_state,
        num_devices,
        fit_report,
        telemetry.clone(),
    ))
}

/// Rebases a parse error from the embedded dig sub-document (whose line
/// numbers start at 1 at the `dig` sentinel's successor) into whole-file
/// line numbers, so downstream byte-offset reporting points at the right
/// place.
fn rebase_dig_error(e: CausalIotError, dig_start: usize) -> CausalIotError {
    match e {
        CausalIotError::Model(iot_model::ModelError::ParseLog { line, reason }) if line > 0 => {
            parse_err(line + dig_start, reason)
        }
        other => other,
    }
}

/// Restores a legacy dig-only document as a model with paper-default
/// configuration (τ fixed to the stored graph's lag depth), no
/// preprocessor, and an all-OFF initial state.
fn load_v1(text: &str, telemetry: &TelemetryHandle) -> Result<FittedModel, CausalIotError> {
    let (dig, threshold) = load_dig(text)?;
    let num_devices = dig.num_devices();
    let config = CausalIotConfig {
        tau: TauChoice::Fixed(dig.tau()),
        ..CausalIotConfig::default()
    };
    let fit_report = structural_report(num_devices, dig.tau(), threshold, &dig);
    Ok(FittedModel::assemble(
        dig,
        threshold,
        None,
        config,
        SystemState::all_off(num_devices),
        num_devices,
        fit_report,
        telemetry.clone(),
    ))
}

/// A [`FitReport`] carrying only the structural facts a checkpoint
/// preserves (counts, τ, threshold); stage timings and calibration-score
/// distributions are fit-time observations and stay at their defaults.
fn structural_report(
    num_devices: usize,
    tau: usize,
    threshold: f64,
    dig: &crate::graph::Dig,
) -> FitReport {
    FitReport {
        num_devices,
        tau,
        threshold,
        num_interactions: dig.interaction_pairs().len(),
        ..FitReport::default()
    }
}

fn parse_f64(s: &str, line: usize, what: &str) -> Result<f64, CausalIotError> {
    s.parse()
        .map_err(|_| parse_err(line, format!("bad {what} `{s}`")))
}

fn parse_num<T: std::str::FromStr>(s: &str, line: usize, what: &str) -> Result<T, CausalIotError> {
    s.parse()
        .map_err(|_| parse_err(line, format!("bad {what} `{s}`")))
}

fn parse_bool(s: &str, line: usize, what: &str) -> Result<bool, CausalIotError> {
    s.parse()
        .map_err(|_| parse_err(line, format!("bad {what} `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CausalIot;
    use iot_model::{
        Attribute, BinaryEvent, DeviceEvent, DeviceRegistry, EventLog, Room, StateValue, Timestamp,
    };

    fn registry() -> DeviceRegistry {
        let mut reg = DeviceRegistry::new();
        reg.add("PE_hall", Attribute::PresenceSensor, Room::new("hall"))
            .unwrap();
        reg.add("B_hall", Attribute::BrightnessSensor, Room::new("hall"))
            .unwrap();
        reg.add("W_sink", Attribute::WaterMeter, Room::new("kitchen"))
            .unwrap();
        reg
    }

    fn raw_log(reg: &DeviceRegistry) -> EventLog {
        let pe = reg.id_of("PE_hall").unwrap();
        let b = reg.id_of("B_hall").unwrap();
        let w = reg.id_of("W_sink").unwrap();
        let mut log = EventLog::new();
        for i in 0..120u64 {
            let t = i * 60;
            log.push(DeviceEvent::new(
                Timestamp::from_secs(t),
                pe,
                StateValue::Binary(i % 2 == 0),
            ));
            let lux = if i % 2 == 0 { 280.0 } else { 6.0 };
            log.push(DeviceEvent::new(
                Timestamp::from_secs(t + 10),
                b,
                StateValue::Numeric(lux + (i % 3) as f64),
            ));
            log.push(DeviceEvent::new(
                Timestamp::from_secs(t + 20),
                w,
                StateValue::Numeric(if i % 4 == 0 { 2.0 } else { 0.0 }),
            ));
        }
        log
    }

    fn fitted() -> FittedModel {
        let reg = registry();
        let log = raw_log(&reg);
        CausalIot::builder()
            .tau(2)
            .build()
            .fit(&reg, &log)
            .expect("fits")
    }

    #[test]
    fn v2_round_trip_is_byte_stable_and_verdict_identical() {
        let model = fitted();
        let text = model.save();
        assert!(text.starts_with("causaliot-model v2\n"));
        let restored = FittedModel::load(&text).expect("loads");
        assert_eq!(restored.save(), text, "save→load→save must be byte-stable");
        assert_eq!(restored.dig(), model.dig());
        assert_eq!(restored.threshold().to_bits(), model.threshold().to_bits());
        assert_eq!(restored.config(), model.config());
        assert_eq!(restored.final_train_state(), model.final_train_state());
        assert_eq!(restored.preprocessor(), model.preprocessor());
    }

    #[test]
    fn binary_fit_round_trips_without_preprocessor() {
        let mut reg = DeviceRegistry::new();
        reg.add("PE_hall", Attribute::PresenceSensor, Room::new("hall"))
            .unwrap();
        reg.add("S_lamp", Attribute::Switch, Room::new("hall"))
            .unwrap();
        let events: Vec<BinaryEvent> = (0..60u64)
            .map(|i| {
                BinaryEvent::new(
                    Timestamp::from_secs(i * 30),
                    iot_model::DeviceId::from_index((i % 2) as usize),
                    (i / 2) % 2 == 0,
                )
            })
            .collect();
        let model = CausalIot::builder()
            .tau(2)
            .build()
            .fit_binary(&reg, &events)
            .expect("fits");
        let text = model.save();
        assert!(text.contains("preprocessor absent"));
        let restored = FittedModel::load(&text).expect("loads");
        assert!(restored.preprocessor().is_none());
        assert_eq!(restored.save(), text);
        assert_eq!(restored.dig(), model.dig());
    }

    #[test]
    fn v1_documents_still_load() {
        let model = fitted();
        let v1 = crate::graph::save_dig(model.dig(), model.threshold());
        let restored = FittedModel::load(&v1).expect("v1 loads");
        assert_eq!(restored.dig(), model.dig());
        assert_eq!(restored.threshold().to_bits(), model.threshold().to_bits());
        assert!(restored.preprocessor().is_none());
        assert_eq!(
            restored.final_train_state(),
            &SystemState::all_off(model.num_devices())
        );
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let err = FittedModel::load("causaliot-model v99\n")
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("unsupported version") && err.contains("v99"),
            "got: {err}"
        );
        let err = FittedModel::load("not-a-checkpoint\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("bad magic"), "got: {err}");
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        let text = fitted().save();
        assert!(FittedModel::load(&text.replace("state ", "state 01")).is_err());
        assert!(FittedModel::load(&text.replace("binarizer 0 binary", "")).is_err());
        let no_dig: String = text
            .lines()
            .take_while(|l| *l != "dig")
            .flat_map(|l| [l, "\n"])
            .collect();
        assert!(FittedModel::load(&no_dig).is_err());
        assert!(FittedModel::load(&text.replace("config.q 99.0", "config.q 0.0")).is_err());
    }

    /// A scratch file that cleans itself up even when the test panics.
    struct ScratchFile(std::path::PathBuf);

    impl ScratchFile {
        fn new(tag: &str) -> Self {
            ScratchFile(std::env::temp_dir().join(format!(
                "causaliot_checkpoint_{tag}_{}.model",
                std::process::id()
            )))
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for ScratchFile {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
            let mut tmp = self.0.as_os_str().to_owned();
            tmp.push(".tmp");
            let _ = fs::remove_file(std::path::PathBuf::from(tmp));
        }
    }

    #[test]
    fn path_round_trip_appends_footer_and_loads_identically() {
        let model = fitted();
        let scratch = ScratchFile::new("roundtrip");
        model.save_to_path(scratch.path()).expect("saves");
        let on_disk = fs::read_to_string(scratch.path()).unwrap();
        let last = on_disk.lines().last().unwrap();
        assert!(
            last.starts_with(CRC_FOOTER_PREFIX),
            "footer missing: {last}"
        );
        assert_eq!(
            on_disk.strip_suffix(&format!("{last}\n")).unwrap(),
            model.save(),
            "the footer is the only difference from the in-memory document"
        );
        let restored = FittedModel::load_from_path(scratch.path()).expect("loads");
        assert_eq!(restored.save(), model.save());
        // No temp file left behind.
        let mut tmp = scratch.path().as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::PathBuf::from(tmp).exists());
    }

    #[test]
    fn footerless_files_still_load_from_path() {
        let model = fitted();
        let scratch = ScratchFile::new("legacy");
        fs::write(scratch.path(), model.save()).unwrap();
        let restored = FittedModel::load_from_path(scratch.path()).expect("legacy file loads");
        assert_eq!(restored.save(), model.save());
    }

    #[test]
    fn checksum_mismatch_fails_closed_with_path_and_offset() {
        let model = fitted();
        let scratch = ScratchFile::new("bitflip");
        model.save_to_path(scratch.path()).expect("saves");
        let mut bytes = fs::read(scratch.path()).unwrap();
        // Flip one bit in the middle of the document body.
        let victim = bytes.len() / 2;
        bytes[victim] ^= 0x01;
        fs::write(scratch.path(), &bytes).unwrap();
        let err = FittedModel::load_from_path(scratch.path()).unwrap_err();
        match err {
            CausalIotError::Corrupt { ref path, .. } => {
                assert!(path.contains("bitflip"), "{err}");
                assert!(err.to_string().contains("checksum mismatch"), "{err}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_reported_with_the_stop_offset() {
        let model = fitted();
        let scratch = ScratchFile::new("truncated");
        let full = model.save();
        // Cut mid-line: no trailing newline.
        let cut = full.len() * 2 / 3;
        fs::write(scratch.path(), &full.as_bytes()[..cut]).unwrap();
        match FittedModel::load_from_path(scratch.path()).unwrap_err() {
            CausalIotError::Truncated { offset, .. } => assert_eq!(offset, cut as u64),
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Empty file.
        fs::write(scratch.path(), b"").unwrap();
        match FittedModel::load_from_path(scratch.path()).unwrap_err() {
            CausalIotError::Truncated { offset, .. } => assert_eq!(offset, 0),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_reports_io_with_the_path() {
        let missing = std::env::temp_dir().join("causaliot_checkpoint_does_not_exist.model");
        match FittedModel::load_from_path(&missing).unwrap_err() {
            CausalIotError::Io { path, .. } => assert!(path.contains("does_not_exist")),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn parse_failures_carry_file_byte_offsets() {
        let model = fitted();
        let scratch = ScratchFile::new("badline");
        // Corrupt a body line but keep the file footerless, so the error
        // comes from the parser rather than the checksum.
        let text = model.save().replace("config.k_max 1", "config.k_max one");
        fs::write(scratch.path(), &text).unwrap();
        match FittedModel::load_from_path(scratch.path()).unwrap_err() {
            CausalIotError::Corrupt { offset, reason, .. } => {
                let line_start = text.find("config.k_max one").unwrap();
                assert_eq!(offset, line_start as u64, "{reason}");
                assert!(reason.contains("k_max"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn content_hash_matches_the_footer_value() {
        let model = fitted();
        let body = model.save();
        let (footered, hash) = save_model_footered(&model);
        assert_eq!(hash, content_hash(&body));
        assert_eq!(
            footered,
            format!("{body}{CRC_FOOTER_PREFIX}{hash:08x}\n"),
            "the footered document is the body plus exactly the footer line"
        );
        // The footered document must load and the value round-trips
        // through the path writer's footer.
        let scratch = ScratchFile::new("footered");
        model.save_to_path(scratch.path()).expect("saves");
        let on_disk = fs::read_to_string(scratch.path()).unwrap();
        assert_eq!(on_disk, footered);
        assert_eq!(model.content_hash(), hash);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 reference values ("check" vectors from the zlib docs).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn restored_monitor_is_verdict_identical_on_raw_events() {
        let reg = registry();
        let model = fitted();
        let restored = FittedModel::load(&model.save()).expect("loads");
        let mut original = model.monitor();
        let mut replica = restored.monitor();
        let holdout = raw_log(&reg);
        for event in holdout.iter().skip(200) {
            let a = original.observe_raw(event);
            let b = replica.observe_raw(event);
            assert_eq!(a, b, "diverged at t={:?}", event.time);
        }
    }
}

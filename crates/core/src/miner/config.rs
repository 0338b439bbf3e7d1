//! Miner configuration.

use iot_stats::gsquare::CiTestKind;
use serde::{Deserialize, Serialize};

/// Configuration of the Interaction Miner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinerConfig {
    /// Significance threshold α for the G² test (paper default: 0.001 —
    /// "a common practice for stringent conditional independence tests").
    /// An edge is *removed* when the p-value exceeds α.
    pub alpha: f64,
    /// Upper bound on the conditioning-set size `l`. Algorithm 1 grows `l`
    /// until no subsets remain; real interaction degrees are small
    /// (Section V-D), so a cap bounds the worst case without affecting the
    /// discovered graph in practice.
    pub max_cond_size: usize,
    /// Laplace pseudo-count for CPT estimation (0 = the paper's plain
    /// maximum-likelihood estimation).
    pub smoothing: f64,
    /// Mine outcome devices on parallel threads.
    pub parallel: bool,
    /// Which conditional-independence statistic to use (G² is the paper's
    /// choice; Pearson's χ² is the classical alternative).
    pub ci_test: CiTestKind,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            alpha: 0.001,
            max_cond_size: 3,
            smoothing: 0.0,
            parallel: true,
            ci_test: CiTestKind::GSquare,
        }
    }
}

impl MinerConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CausalIotError::InvalidConfig`] when α is outside
    /// `(0, 1)` or smoothing is negative or NaN.
    pub fn validate(&self) -> Result<(), crate::CausalIotError> {
        self.check().map_err(Into::into)
    }

    /// Like [`MinerConfig::validate`] but reports the fine-grained
    /// [`crate::ConfigError`] used by the builder's fallible
    /// `try_build` path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MinerConfig::validate`].
    pub fn check(&self) -> Result<(), crate::ConfigError> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(crate::ConfigError::new(
                "alpha",
                format!("must be in (0, 1), got {}", self.alpha),
            ));
        }
        if self.smoothing.is_nan() || self.smoothing < 0.0 {
            return Err(crate::ConfigError::new("smoothing", "must be non-negative"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let cfg = MinerConfig::default();
        assert_eq!(cfg.alpha, 0.001);
        assert_eq!(cfg.smoothing, 0.0);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_alpha() {
        let cfg = MinerConfig {
            alpha: 0.0,
            ..MinerConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = MinerConfig {
            alpha: 1.5,
            ..MinerConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_negative_smoothing() {
        let cfg = MinerConfig {
            smoothing: -1.0,
            ..MinerConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}

//! System configuration binding the model, numeric pipeline, HE
//! parameters, GC parameters and network model together.

use primer_gc::{GcNumCfg, OtGroup};
use primer_he::{HeContext, HeParams};
use primer_math::{FixedSpec, Ring};
use primer_net::NetworkModel;
use primer_nn::{PipelineSpec, TransformerConfig};
use std::fmt;

/// Errors raised while assembling a system configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The padded token count does not fit the HE row size.
    TokensExceedSlots {
        /// Padded token count.
        padded: usize,
        /// Available slots per row.
        slots: usize,
    },
    /// `PRIMER_SIMD` is set to something other than
    /// `scalar|avx2|avx512|auto` (or the legacy `0|off|1|on`). Rejected
    /// at assembly, before the HE context that fixes the tier is built,
    /// so a typo'd kernel-tier experiment fails at session Setup with a
    /// typed error instead of panicking.
    InvalidSimdPolicy {
        /// The offending value, verbatim.
        value: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TokensExceedSlots { padded, slots } => {
                write!(f, "padded token count {padded} exceeds HE row size {slots}")
            }
            ConfigError::InvalidSimdPolicy { value } => {
                write!(
                    f,
                    "PRIMER_SIMD must be scalar|avx2|avx512|auto (or 0|off|1|on), got {value:?}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Everything a private-inference run needs to know.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The transformer being evaluated.
    pub model: TransformerConfig,
    /// HE context (the plaintext modulus `t` is the system ring).
    pub he: HeContext,
    /// Numeric pipeline (ring = `Z_t`, fixed format, GC precision).
    pub pipeline: PipelineSpec,
    /// GC word configuration.
    pub gc: GcNumCfg,
    /// Base-OT group.
    pub ot_group: OtGroupKind,
    /// Network model for time accounting.
    pub network: NetworkModel,
}

/// Which base-OT group to instantiate (kept as an enum so the config
/// stays `Clone` without carrying Montgomery tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OtGroupKind {
    /// RFC 3526 2048-bit (production parameters).
    Modp2048,
    /// RFC 2409 768-bit (fast tests).
    Modp768,
}

impl OtGroupKind {
    /// Instantiates the group.
    pub fn group(&self) -> OtGroup {
        match self {
            OtGroupKind::Modp2048 => OtGroup::rfc3526_2048(),
            OtGroupKind::Modp768 => OtGroup::test_768(),
        }
    }
}

impl SystemConfig {
    /// Test profile: `n = 2048` HE ring, ~30-bit plaintext, 12-bit/5-frac
    /// values, 768-bit OT group, paper LAN model. Suitable for the
    /// scaled-down end-to-end tests.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the model's tokens cannot be packed.
    pub fn test_profile(model: &TransformerConfig) -> Result<Self, ConfigError> {
        let fixed = FixedSpec::new(12, 5);
        Self::assemble(model, HeParams::test_2k_wide(), fixed, 12, OtGroupKind::Modp768)
    }

    /// Paper-scale profile: `n = 8192`, 43-bit plaintext, the paper's
    /// 15-bit format, 2048-bit OT group.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the model's tokens cannot be packed.
    pub fn paper_profile(model: &TransformerConfig) -> Result<Self, ConfigError> {
        Self::assemble(model, HeParams::paper_8k(), FixedSpec::paper(), 12, OtGroupKind::Modp2048)
    }

    fn assemble(
        model: &TransformerConfig,
        params: HeParams,
        fixed: FixedSpec,
        gc_frac: u32,
        ot_group: OtGroupKind,
    ) -> Result<Self, ConfigError> {
        let padded = model.n_tokens.next_power_of_two();
        let slots = params.row_size();
        if padded > slots {
            return Err(ConfigError::TokensExceedSlots { padded, slots });
        }
        // The SIMD tier is fixed by the context built below; validating
        // it first keeps a typo a typed error instead of
        // `simd::level()`'s panic.
        if let Err(value) = primer_he::simd::SimdPolicy::from_env() {
            return Err(ConfigError::InvalidSimdPolicy { value });
        }
        let he = HeContext::new(params);
        let ring = Ring::new(he.params().t());
        let pipeline = PipelineSpec::new(ring, fixed, gc_frac);
        Ok(Self {
            model: model.clone(),
            he,
            pipeline,
            gc: GcNumCfg { width: 48, frac: gc_frac },
            ot_group,
            network: NetworkModel::paper_lan(),
        })
    }

    /// The system ring `Z_t`.
    pub fn ring(&self) -> Ring {
        self.pipeline.ring
    }

    /// Usable SIMD width (one batching row).
    pub fn simd_width(&self) -> usize {
        self.he.params().row_size()
    }

    /// Tokens padded to a power of two (the tokens-first block stride).
    pub fn padded_tokens(&self) -> usize {
        self.model.n_tokens.next_power_of_two()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_profile_assembles() {
        let cfg = SystemConfig::test_profile(&TransformerConfig::test_tiny()).expect("profile");
        assert_eq!(cfg.ring().modulus(), cfg.he.params().t());
        assert_eq!(cfg.padded_tokens(), 4);
        assert!(cfg.simd_width() >= 1024);
    }

    #[test]
    fn oversized_tokens_rejected() {
        let mut model = TransformerConfig::test_tiny();
        model.n_tokens = 5000;
        let err = SystemConfig::test_profile(&model).unwrap_err();
        assert!(matches!(err, ConfigError::TokensExceedSlots { .. }));
    }
}

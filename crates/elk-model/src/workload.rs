use std::fmt;

use serde::{Deserialize, Serialize};

/// Which phase of model execution the graph describes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Autoregressive decoding: one new token per request, KV cache read
    /// from HBM. Bandwidth-bound — the paper's main evaluation (Fig. 17).
    #[default]
    Decode,
    /// Prompt processing: `seq_len` tokens per request, KV cache written.
    Prefill,
    /// Training forward pass over full sequences (Fig. 24). Compute-bound;
    /// attention inputs are on-chip activations, not HBM-resident caches.
    TrainingForward,
}

impl Phase {
    /// Tokens in flight per request for matrix-multiply row counts.
    #[must_use]
    pub const fn tokens_per_request(self, seq_len: u64) -> u64 {
        match self {
            Phase::Decode => 1,
            Phase::Prefill | Phase::TrainingForward => seq_len,
        }
    }

    /// `true` if attention reads the KV cache from HBM.
    #[must_use]
    pub const fn reads_kv_cache(self) -> bool {
        matches!(self, Phase::Decode)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Batch size, sequence length, and phase of one serving/training step.
///
/// # Examples
///
/// ```
/// use elk_model::Workload;
///
/// let wl = Workload::decode(32, 2048);
/// assert_eq!(wl.tokens_in_flight(), 32);
/// let train = Workload::training_forward(4, 2048);
/// assert_eq!(train.tokens_in_flight(), 4 * 2048);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Workload {
    /// Requests per batch.
    pub batch: u64,
    /// Context length (KV-cache depth for decode; input length otherwise).
    pub seq_len: u64,
    /// Execution phase.
    pub phase: Phase,
}

impl Workload {
    /// A decode step: `batch` requests each generating one token against a
    /// `seq_len`-deep KV cache.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `seq_len` is zero.
    #[must_use]
    pub fn decode(batch: u64, seq_len: u64) -> Self {
        Workload::checked(batch, seq_len, Phase::Decode)
    }

    /// A prefill step over `batch` prompts of `seq_len` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `seq_len` is zero.
    #[must_use]
    pub fn prefill(batch: u64, seq_len: u64) -> Self {
        Workload::checked(batch, seq_len, Phase::Prefill)
    }

    /// A training forward pass over `batch` sequences of `seq_len` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `seq_len` is zero.
    #[must_use]
    pub fn training_forward(batch: u64, seq_len: u64) -> Self {
        Workload::checked(batch, seq_len, Phase::TrainingForward)
    }

    /// Checks the dimensions.
    ///
    /// # Errors
    ///
    /// Returns a message if `batch` or `seq_len` is zero.
    pub fn validate(&self) -> Result<(), String> {
        let Workload { batch, seq_len, .. } = *self;
        if batch > 0 && seq_len > 0 {
            return Ok(());
        }
        Err(format!(
            "batch ({batch}) and seq_len ({seq_len}) must be > 0"
        ))
    }

    fn checked(batch: u64, seq_len: u64, phase: Phase) -> Self {
        let wl = Workload {
            batch,
            seq_len,
            phase,
        };
        wl.validate()
            .unwrap_or_else(|e| panic!("workload dimensions: {e}"));
        wl
    }

    /// Total tokens flowing through matrix multiplies this step.
    #[must_use]
    pub const fn tokens_in_flight(&self) -> u64 {
        self.batch * self.phase.tokens_per_request(self.seq_len)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} b{} s{}", self.phase, self.batch, self.seq_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_tokens() {
        assert_eq!(Workload::decode(16, 4096).tokens_in_flight(), 16);
    }

    #[test]
    fn prefill_tokens() {
        assert_eq!(Workload::prefill(2, 1024).tokens_in_flight(), 2048);
    }

    #[test]
    fn kv_cache_only_in_decode() {
        assert!(Phase::Decode.reads_kv_cache());
        assert!(!Phase::TrainingForward.reads_kv_cache());
        assert!(!Phase::Prefill.reads_kv_cache());
    }

    #[test]
    #[should_panic(expected = "must be > 0")]
    fn zero_batch_rejected() {
        let _ = Workload::decode(0, 128);
    }
}

//! Iteration-level continuous batching (Orca-style).
//!
//! Each scheduler iteration is either a **prefill** step (admitting
//! waiting requests, bounded by free batch slots and a prompt-token
//! budget) or a **decode** step (one token for every active request).
//! Prefill has priority whenever requests are waiting and slots are
//! free — the policy that minimizes time-to-first-token at a small cost
//! to decode throughput.

use serde::{Deserialize, Serialize};

use elk_model::{Phase, SeqBuckets, Workload};

/// Continuous-batching knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Maximum concurrent requests per replica (decode batch cap and
    /// admission bound).
    pub max_batch: u64,
    /// Prompt-token budget per prefill step (at least one request is
    /// always admitted, even if its prompt alone exceeds the budget).
    pub max_prefill_tokens: u64,
    /// Sequence-length bucketing for plan-cache keys.
    pub seq_buckets: SeqBuckets,
    /// Round step batch sizes up to powers of two so the plan cache sees
    /// a bounded set of batch shapes (costs a conservative latency
    /// estimate for mid-bucket sizes).
    pub bucket_batch: bool,
}

impl Default for BatchConfig {
    /// Batch cap 64 (the paper's largest evaluated batch),
    /// an 8192-token prefill budget, and pow-of-two bucketing on.
    fn default() -> Self {
        BatchConfig {
            max_batch: 64,
            max_prefill_tokens: 8192,
            seq_buckets: SeqBuckets::default(),
            bucket_batch: true,
        }
    }
}

impl BatchConfig {
    /// Checks the knobs: non-zero caps, a batch cap its power-of-two
    /// bucket holds (at most `2^63`), and a well-formed bucket ladder.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first ill-formed knob.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=1 << 63).contains(&self.max_batch) {
            return Err(format!(
                "max_batch must be in 1..=2^63, got {}",
                self.max_batch
            ));
        }
        if self.max_prefill_tokens == 0 {
            return Err("max_prefill_tokens must be > 0".into());
        }
        self.seq_buckets
            .validate()
            .map_err(|e| format!("seq_buckets: {e}"))
    }

    /// The bucketed step workload for `n` requests at raw sequence
    /// length `seq` (the longest context in the batch) — the shape the
    /// plan cache is keyed on. Public so cluster-level serving engines
    /// bucket exactly like the single-pod batcher.
    #[must_use]
    pub fn step_workload(&self, phase: Phase, n: u64, seq: u64) -> Workload {
        let mut wl = Workload {
            batch: n,
            seq_len: seq,
            phase,
        };
        wl = wl.bucketed(&self.seq_buckets);
        if self.bucket_batch {
            wl = wl.with_bucketed_batch(self.max_batch);
        }
        wl
    }
}

/// What the scheduler decided to run this iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum StepPlan {
    /// Admit the first `admit` waiting requests and run their prefill.
    Prefill {
        /// How many waiting requests to admit, in FIFO order.
        admit: usize,
    },
    /// Run one decode iteration over all active requests.
    Decode,
}

/// Picks the next iteration given the FIFO prompt lengths of waiting
/// requests and the number of active (decoding) requests.
///
/// The prompt lengths are read lazily and only as far as admission
/// looks (at most the free batch slots), so an event loop can pass
/// `waiting.iter().map(..)` straight from its queue.
///
/// Returns `None` when there is nothing to do (idle — the engine jumps
/// the clock to the next arrival).
#[must_use]
pub(crate) fn next_step(
    cfg: &BatchConfig,
    waiting_prompts: impl IntoIterator<Item = u64>,
    active: usize,
) -> Option<StepPlan> {
    let free = (cfg.max_batch as usize).saturating_sub(active);
    let mut prompts = waiting_prompts.into_iter().take(free).peekable();
    if prompts.peek().is_some() {
        let mut admit = 0;
        let mut tokens = 0u64;
        for p in prompts {
            if admit > 0 && tokens + p > cfg.max_prefill_tokens {
                break;
            }
            admit += 1;
            tokens += p;
        }
        return Some(StepPlan::Prefill { admit });
    }
    if active > 0 {
        return Some(StepPlan::Decode);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_model::Phase;

    fn cfg() -> BatchConfig {
        BatchConfig {
            max_batch: 4,
            max_prefill_tokens: 1000,
            seq_buckets: SeqBuckets::new(256, 4096),
            bucket_batch: true,
        }
    }

    #[test]
    fn prefill_has_priority_while_slots_free() {
        assert_eq!(
            next_step(&cfg(), [100, 100], 2),
            Some(StepPlan::Prefill { admit: 2 })
        );
    }

    #[test]
    fn full_batch_decodes_even_with_waiters() {
        assert_eq!(next_step(&cfg(), [100], 4), Some(StepPlan::Decode));
    }

    #[test]
    fn admission_respects_token_budget() {
        // 600 + 600 > 1000: only the first fits alongside another.
        assert_eq!(
            next_step(&cfg(), [600, 600, 600], 0),
            Some(StepPlan::Prefill { admit: 1 })
        );
        // A single oversized prompt is still admitted alone.
        assert_eq!(
            next_step(&cfg(), [5000], 0),
            Some(StepPlan::Prefill { admit: 1 })
        );
    }

    #[test]
    fn admission_respects_free_slots() {
        assert_eq!(
            next_step(&cfg(), [10, 10, 10, 10, 10], 1),
            Some(StepPlan::Prefill { admit: 3 })
        );
    }

    #[test]
    fn idle_when_nothing_to_do() {
        assert_eq!(next_step(&cfg(), std::iter::empty(), 0), None);
        assert_eq!(
            next_step(&cfg(), std::iter::empty(), 2),
            Some(StepPlan::Decode)
        );
    }

    #[test]
    fn step_workload_buckets_both_axes() {
        let wl = cfg().step_workload(Phase::Decode, 3, 700);
        assert_eq!(wl.batch, 4); // pow2(3)
        assert_eq!(wl.seq_len, 1024);
        assert_eq!(wl.phase, Phase::Decode);
    }

    #[test]
    fn zero_batch_rejected() {
        let e = BatchConfig {
            max_batch: 0,
            ..BatchConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(e.contains("max_batch"), "{e}");
    }

    #[test]
    fn a_batch_cap_past_its_bucket_is_rejected() {
        let with = |max_batch| BatchConfig {
            max_batch,
            ..BatchConfig::default()
        };
        let e = with((1 << 63) + 1).validate().unwrap_err();
        assert_eq!(e, "max_batch must be in 1..=2^63, got 9223372036854775809");
        assert_eq!(with(1 << 63).validate(), Ok(()));
        let wl = with(1 << 63).step_workload(Phase::Decode, 3, u64::MAX);
        assert_eq!((wl.batch, wl.seq_len), (4, 8192));
    }
}

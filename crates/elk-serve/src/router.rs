//! Request routing across replica groups.
//!
//! The base [`ServingSim`](crate::ServingSim) pre-partitions its trace
//! round-robin so replicas can simulate independently. Cluster-level
//! serving (the `elk-cluster` crate) routes **dynamically** instead:
//! each arrival is dispatched by a [`Router`] that can observe how many
//! requests every replica group currently has outstanding. Three
//! policies are provided:
//!
//! * **round-robin** — ignore load, cycle through the groups;
//! * **least-outstanding** — pick the group with the fewest queued +
//!   in-flight requests (ties to the lowest index);
//! * **power-of-two-choices** — sample two groups with a seeded
//!   deterministic RNG and keep the less loaded one: most of the benefit
//!   of least-outstanding with O(1) observed state.
//!
//! Every policy is fully deterministic — same seed, same arrivals, same
//! decisions — which is what keeps cluster serving byte-identical at any
//! thread count.
//!
//! # Examples
//!
//! ```
//! use elk_serve::{Router, RouterPolicy};
//!
//! let mut rr = Router::new(RouterPolicy::RoundRobin, 3);
//! assert_eq!(rr.route(&[0, 0, 0]), 0);
//! assert_eq!(rr.route(&[9, 0, 0]), 1); // round-robin ignores load
//!
//! let mut lo = Router::new(RouterPolicy::LeastOutstanding, 3);
//! assert_eq!(lo.route(&[2, 1, 5]), 1);
//! ```

use std::fmt;

use elk_sim_core::SimRng;
use serde::{Deserialize, Serialize};

/// The dispatch policy of a [`Router`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Cycle through the groups regardless of load.
    RoundRobin,
    /// Send each arrival to the group with the fewest outstanding
    /// requests (ties broken toward the lowest index).
    LeastOutstanding,
    /// Sample two groups with a seeded kernel RNG and pick the less
    /// loaded (ties toward the lower index of the pair).
    PowerOfTwoChoices {
        /// RNG seed; the same seed replays the same choice sequence.
        seed: u64,
    },
}

impl RouterPolicy {
    /// All policies, with the default power-of-two seed — the cluster
    /// scenarios' comparison order.
    #[must_use]
    pub fn all() -> [RouterPolicy; 3] {
        [
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastOutstanding,
            RouterPolicy::PowerOfTwoChoices { seed: 2 },
        ]
    }

    /// Canonical lowercase name (`round_robin`, `least_outstanding`,
    /// `power_of_two`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "round_robin",
            RouterPolicy::LeastOutstanding => "least_outstanding",
            RouterPolicy::PowerOfTwoChoices { .. } => "power_of_two",
        }
    }
}

impl fmt::Display for RouterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterPolicy::PowerOfTwoChoices { seed } => write!(f, "power_of_two(seed={seed})"),
            other => f.write_str(other.name()),
        }
    }
}

/// Stateful dispatcher: one [`route`](Router::route) call per arrival.
#[derive(Debug, Clone)]
pub struct Router {
    policy: RouterPolicy,
    groups: usize,
    /// Round-robin cursor.
    next: usize,
    /// Power-of-two seeded stream (the kernel's [`SimRng`]).
    rng: SimRng,
}

impl Router {
    /// A router over `groups` replica groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero.
    #[must_use]
    pub fn new(policy: RouterPolicy, groups: usize) -> Self {
        assert!(groups > 0, "router needs at least one group");
        let seed = match policy {
            RouterPolicy::PowerOfTwoChoices { seed } => seed,
            _ => 0,
        };
        Router {
            policy,
            groups,
            next: 0,
            rng: SimRng::new(seed),
        }
    }

    /// The policy this router runs.
    #[must_use]
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// Picks the group for the next arrival. `outstanding[g]` is group
    /// `g`'s queued + in-flight request count at the arrival instant;
    /// its length must equal the router's group count.
    ///
    /// # Panics
    ///
    /// Panics if `outstanding.len()` differs from the group count.
    pub fn route(&mut self, outstanding: &[usize]) -> usize {
        assert_eq!(
            outstanding.len(),
            self.groups,
            "outstanding snapshot does not match the router's group count"
        );
        self.route_by(|g| outstanding[g])
    }

    /// [`route`](Self::route) with the outstanding counts read on
    /// demand: `outstanding(g)` is asked only for the groups the policy
    /// compares (none under round robin), so event loops route without
    /// building a snapshot.
    pub fn route_by(&mut self, outstanding: impl Fn(usize) -> usize) -> usize {
        match self.policy {
            RouterPolicy::RoundRobin => {
                let pick = self.next;
                self.next = (self.next + 1) % self.groups;
                pick
            }
            RouterPolicy::LeastOutstanding => (0..self.groups)
                .min_by_key(|&i| (outstanding(i), i))
                .expect("at least one group"),
            RouterPolicy::PowerOfTwoChoices { .. } => {
                let a = self.rng.gen_index(self.groups);
                let b = self.rng.gen_index(self.groups);
                // Less loaded wins; ties to the lower index.
                if (outstanding(b), b) < (outstanding(a), a) {
                    b
                } else {
                    a
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles() {
        let mut r = Router::new(RouterPolicy::RoundRobin, 3);
        let picks: Vec<usize> = (0..7).map(|_| r.route(&[9, 9, 9])).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_outstanding_tracks_load_with_index_ties() {
        let mut r = Router::new(RouterPolicy::LeastOutstanding, 4);
        assert_eq!(r.route(&[3, 1, 1, 2]), 1, "tie goes to the lower index");
        assert_eq!(r.route(&[0, 1, 1, 2]), 0);
        assert_eq!(r.route(&[5, 5, 5, 4]), 3);
    }

    #[test]
    fn power_of_two_is_seed_deterministic_and_load_aware() {
        let seq = |seed: u64, outstanding: &[usize]| -> Vec<usize> {
            let mut r = Router::new(RouterPolicy::PowerOfTwoChoices { seed }, outstanding.len());
            (0..32).map(|_| r.route(outstanding)).collect()
        };
        assert_eq!(seq(7, &[0, 0, 0, 0]), seq(7, &[0, 0, 0, 0]));
        assert_ne!(
            seq(7, &[0, 0, 0, 0]),
            seq(8, &[0, 0, 0, 0]),
            "different seeds explore differently"
        );
        // With one group drowning, p2c should mostly avoid it.
        let picks = seq(7, &[100, 0, 0, 0]);
        let drowned = picks.iter().filter(|&&p| p == 0).count();
        assert!(
            drowned < picks.len() / 2,
            "p2c sent {drowned}/32 to the hot group"
        );
        // Seed zero is valid (splitmix64 has no bad seeds).
        let _ = seq(0, &[0, 0]);
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(RouterPolicy::RoundRobin.name(), "round_robin");
        assert_eq!(RouterPolicy::LeastOutstanding.name(), "least_outstanding");
        assert_eq!(
            RouterPolicy::PowerOfTwoChoices { seed: 3 }.name(),
            "power_of_two"
        );
        assert_eq!(RouterPolicy::all().len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_rejected() {
        let _ = Router::new(RouterPolicy::RoundRobin, 0);
    }

    #[test]
    #[should_panic(expected = "group count")]
    fn mismatched_snapshot_rejected() {
        let mut r = Router::new(RouterPolicy::LeastOutstanding, 2);
        let _ = r.route(&[1, 2, 3]);
    }
}

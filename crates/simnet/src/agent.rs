use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::AgentProfile;

/// Identifier of an agent in a simulated world.
///
/// A newtype over the agent's index; printable as `agent#7`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct AgentId(pub usize);

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent#{}", self.0)
    }
}

impl From<usize> for AgentId {
    fn from(v: usize) -> Self {
        AgentId(v)
    }
}

/// A hash map keyed by [`AgentId`], hashed with [`AgentIdHasher`].
pub type AgentMap<V> = HashMap<AgentId, V, BuildHasherDefault<AgentIdHasher>>;

/// A one-multiply hash for agent ids (the FxHash step). Ids are dense
/// integers chosen by the simulation, not by an adversary, so SipHash's
/// flooding resistance buys nothing on per-round paths such as the carried
/// head starts, while its cost shows at a 10k-agent cohort. The pairing
/// scheduler also keys its link-class index, `(link bits, isolated)`, with
/// it.
#[derive(Debug, Clone, Copy, Default)]
pub struct AgentIdHasher(u64);

impl AgentIdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for AgentIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

/// Per-agent simulation state: identity, resources and task size.
///
/// The "task size" is the number of local mini-batches per round (`Ñ_i` in
/// Algorithm 1) — the paper ties workload directly to local dataset size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentState {
    /// Agent identity.
    pub id: AgentId,
    /// Current compute/communication profile (may change via churn).
    pub profile: AgentProfile,
    /// Number of local training samples.
    pub num_samples: usize,
    /// Mini-batch size used locally.
    pub batch_size: usize,
}

impl AgentState {
    /// Creates a new agent state.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(id: AgentId, profile: AgentProfile, num_samples: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self { id, profile, num_samples, batch_size }
    }

    /// Local mini-batches per round (`Ñ_i`), rounding up so every sample is
    /// visited once per local epoch.
    pub fn num_batches(&self) -> usize {
        self.num_samples.div_ceil(self.batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_round_up() {
        let a = AgentState::new(AgentId(0), AgentProfile::new(1.0, 10.0), 501, 100);
        assert_eq!(a.num_batches(), 6);
        let b = AgentState::new(AgentId(1), AgentProfile::new(1.0, 10.0), 500, 100);
        assert_eq!(b.num_batches(), 5);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(AgentId(7).to_string(), "agent#7");
    }

    #[test]
    fn id_conversion() {
        let id: AgentId = 3usize.into();
        assert_eq!(id, AgentId(3));
    }
}

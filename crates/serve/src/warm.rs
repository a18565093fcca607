//! Per-variant warm-start store.
//!
//! Every converged bias point deposits its self-energies here; a later
//! point of the same variant seeds its Born iteration from the nearest
//! deposited bias. Seeds are shared behind `Arc` — depositing never
//! copies tensors, and a lookup clones only at the solver boundary
//! (`ScfOptions::warm` takes owned state).
//!
//! The store is **bounded**: each seed holds full Σ/Π tensors, so an
//! unbounded store would grow service memory with every distinct bias a
//! long-running deployment ever sees. At `capacity` a deposit evicts one
//! entry, chosen to preserve *bias-space coverage* rather than recency
//! alone: the victim is the entry whose nearest neighbor (among the other
//! entries and the incoming bias) is closest — the most redundant seed —
//! with deposit age breaking ties (evict oldest). Well-spread biases
//! survive; crowded duplicates and stale near-duplicates go first.

use std::sync::{Arc, Mutex};

use qt_core::scf::WarmStart;
use qt_telemetry::counters::{self, Counter};

struct Entry {
    bias: f64,
    /// Monotone deposit sequence number (older = smaller).
    age: u64,
    seed: Arc<WarmStart>,
}

struct Inner {
    entries: Vec<Entry>,
    next_age: u64,
}

/// Bounded nearest-bias warm-start store for one device variant.
pub struct WarmStore {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl Default for WarmStore {
    fn default() -> Self {
        WarmStore::with_capacity(16)
    }
}

impl WarmStore {
    pub fn new() -> Self {
        WarmStore::default()
    }

    /// A store retaining at most `capacity` seeds (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        WarmStore {
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                next_age: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of retained seeds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Deposit the converged state of `bias`. Replaces an existing entry
    /// at the same bias (latest solve wins); at capacity, evicts the most
    /// redundant entry (smallest nearest-neighbor gap in bias space,
    /// oldest on ties) and counts the eviction. Non-finite biases are
    /// ignored — they must never enter nearest-neighbor comparisons.
    pub fn deposit(&self, bias: f64, seed: Arc<WarmStart>) {
        if !bias.is_finite() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        let age = inner.next_age;
        inner.next_age += 1;
        if let Some(slot) = inner.entries.iter_mut().find(|e| e.bias == bias) {
            slot.seed = seed;
            slot.age = age;
            return;
        }
        if inner.entries.len() >= self.capacity {
            let victim = most_redundant(&inner.entries, bias);
            inner.entries.swap_remove(victim);
            counters::add(Counter::ServiceWarmEvicted, 1);
        }
        inner.entries.push(Entry { bias, age, seed });
    }

    /// The seed whose bias is nearest to `bias`, if any. `bias` must be
    /// finite (enforced upstream at [`crate::Service::submit`]); a
    /// non-finite probe returns `None` instead of poisoning the
    /// comparison.
    pub fn nearest(&self, bias: f64) -> Option<(f64, Arc<WarmStart>)> {
        if !bias.is_finite() {
            return None;
        }
        let inner = self.inner.lock().unwrap();
        inner
            .entries
            .iter()
            .min_by(|a, b| (a.bias - bias).abs().total_cmp(&(b.bias - bias).abs()))
            .map(|e| (e.bias, e.seed.clone()))
    }

    /// Number of deposited seeds.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained biases, ascending (diagnostics/tests).
    pub fn biases(&self) -> Vec<f64> {
        let inner = self.inner.lock().unwrap();
        let mut b: Vec<f64> = inner.entries.iter().map(|e| e.bias).collect();
        b.sort_by(f64::total_cmp);
        b
    }
}

/// Index of the entry to evict so the surviving set (plus `incoming`)
/// stays maximally spread: the entry with the smallest distance to its
/// nearest neighbor (other entries and the incoming bias all count as
/// neighbors), oldest on ties.
fn most_redundant(entries: &[Entry], incoming: f64) -> usize {
    let mut victim = 0;
    let mut victim_gap = f64::INFINITY;
    for (i, e) in entries.iter().enumerate() {
        let mut gap = (e.bias - incoming).abs();
        for (j, o) in entries.iter().enumerate() {
            if j != i {
                gap = gap.min((e.bias - o.bias).abs());
            }
        }
        let crowded = gap < victim_gap;
        let older_tie = gap == victim_gap && e.age < entries[victim].age;
        if crowded || older_tie {
            victim = i;
            victim_gap = gap;
        }
    }
    victim
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_core::gf::{ElectronSelfEnergy, PhononSelfEnergy};
    use qt_core::params::SimParams;

    fn seed() -> Arc<WarmStart> {
        let p = SimParams {
            nkz: 1,
            nqz: 1,
            ne: 2,
            nw: 1,
            na: 4,
            nb: 2,
            norb: 1,
            bnum: 2,
        };
        Arc::new(WarmStart {
            sigma: ElectronSelfEnergy::zeros(&p),
            pi: PhononSelfEnergy::zeros(&p),
        })
    }

    #[test]
    fn nearest_picks_the_closest_bias_and_deposit_replaces() {
        let store = WarmStore::new();
        assert!(store.nearest(0.1).is_none());
        store.deposit(0.0, seed());
        store.deposit(0.4, seed());
        assert_eq!(store.nearest(0.1).unwrap().0, 0.0);
        assert_eq!(store.nearest(0.3).unwrap().0, 0.4);
        let replacement = seed();
        store.deposit(0.4, replacement.clone());
        assert_eq!(store.len(), 2, "same-bias deposit replaces, not appends");
        assert!(Arc::ptr_eq(&store.nearest(0.39).unwrap().1, &replacement));
    }

    #[test]
    fn capacity_bounds_the_store_and_eviction_keeps_the_spread() {
        let store = WarmStore::with_capacity(3);
        // `deposit` evicts on the calling thread: this thread's shard is
        // exact whatever sibling tests evict.
        let before = counters::local(Counter::ServiceWarmEvicted);
        store.deposit(0.0, seed());
        store.deposit(1.0, seed());
        store.deposit(0.98, seed()); // crowds 1.0
        assert_eq!(store.len(), 3);
        assert_eq!(
            counters::local(Counter::ServiceWarmEvicted),
            before,
            "no eviction below capacity"
        );
        // A fourth, well-separated bias must evict one of the crowded
        // pair (0.98 is older than nothing — 0.98 and 1.0 have the same
        // min-gap, so the older of the two goes: 1.0).
        store.deposit(0.5, seed());
        assert_eq!(store.len(), 3, "store must stay at capacity");
        assert_eq!(
            counters::local(Counter::ServiceWarmEvicted),
            before + 1,
            "eviction must be counted"
        );
        let biases = store.biases();
        assert!(biases.contains(&0.0), "spread endpoint 0.0 must survive");
        assert!(biases.contains(&0.5), "the incoming bias is retained");
        assert_eq!(
            biases.iter().filter(|&&b| b == 0.98 || b == 1.0).count(),
            1,
            "exactly one of the crowded pair survives, got {biases:?}"
        );
    }

    #[test]
    fn eviction_prefers_the_oldest_on_gap_ties() {
        let store = WarmStore::with_capacity(2);
        store.deposit(0.0, seed()); // age 0
        store.deposit(1.0, seed()); // age 1
                                    // Incoming 0.5 is equidistant: both entries tie on min-gap (1.0
                                    // against each other... 0.0↔1.0 gap 1.0, each ↔0.5 gap 0.5 —
                                    // symmetric), so the oldest (0.0) goes.
        store.deposit(0.5, seed());
        let biases = store.biases();
        assert_eq!(biases, vec![0.5, 1.0], "oldest entry evicted on ties");
    }

    #[test]
    fn non_finite_probes_and_deposits_are_inert() {
        let store = WarmStore::new();
        store.deposit(0.2, seed());
        assert!(store.nearest(f64::NAN).is_none());
        assert!(store.nearest(f64::INFINITY).is_none());
        store.deposit(f64::NAN, seed());
        store.deposit(f64::NEG_INFINITY, seed());
        assert_eq!(store.len(), 1, "non-finite biases must never be stored");
        assert_eq!(store.nearest(0.0).unwrap().0, 0.2);
    }
}

//! Deterministic fault injection for the thread world.
//!
//! Always compiled, selected at run time: a world built with a
//! [`FaultPlan`] runs under it, a world built with `None` never consults
//! this module (see [`crate::comm`]).
//!
//! A [`FaultPlan`] decides, per wire transmission, whether a frame is
//! delivered, dropped, corrupted, or delayed. Decisions are pure functions
//! of `(seed, src, dst, msg_idx, attempt)` hashed with FNV-1a, so a plan
//! replays the *exact same* fault sequence on every run regardless of
//! thread scheduling — the property that makes chaos tests assertable.
//!
//! The recovery protocol lives in [`crate::comm`]: senders retransmit with
//! exponential backoff until a clean frame goes out, receivers validate a
//! checksum and discard corrupted frames while waiting (with a timeout) for
//! the retransmission. With [`RetryPolicy::guarantee_delivery`] the final
//! attempt is always clean, so a faulty run produces *bitwise identical*
//! payloads to a fault-free run — only the traffic and timing differ.

use qt_linalg::Complex64;
use std::time::Duration;

/// What happens to one wire transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Frame arrives intact.
    Deliver,
    /// Frame is lost in transit; the sender must retransmit.
    Drop,
    /// Frame arrives with flipped payload bits and a broken checksum; the
    /// receiver discards it and waits for the retransmission.
    Corrupt,
    /// Frame arrives intact but late.
    Delay,
}

/// Bounded-retry policy shared by senders and receivers.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Wire attempts per logical message before the sender gives up
    /// (panics); also bounds consecutive receive timeouts.
    pub max_attempts: u32,
    /// First backoff sleep; doubles per attempt (capped at 10 ms).
    pub base_backoff: Duration,
    /// How long a receiver waits for a frame before counting a timeout.
    pub recv_timeout: Duration,
    /// Force the final attempt to deliver cleanly, so every logical
    /// message eventually arrives and faulty runs match fault-free ones.
    pub guarantee_delivery: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_micros(100),
            recv_timeout: Duration::from_secs(5),
            guarantee_delivery: true,
        }
    }
}

impl RetryPolicy {
    /// Exponential backoff for `attempt` (0-based), capped at 10 ms so
    /// chaos tests stay fast.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let mul = 1u32 << attempt.min(10);
        self.base_backoff
            .saturating_mul(mul)
            .min(Duration::from_millis(10))
    }
}

/// Seeded, deterministic fault schedule for a whole world.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed mixed into every per-transmission hash.
    pub seed: u64,
    /// Per-mille probability a transmission is dropped.
    pub drop_per_mille: u16,
    /// Per-mille probability a transmission is corrupted.
    pub corrupt_per_mille: u16,
    /// Per-mille probability a transmission is delayed.
    pub delay_per_mille: u16,
    /// How long a delayed frame sits before it is sent.
    pub delay: Duration,
    /// Rank that sleeps before starting its work (a straggler node).
    pub stalled_rank: Option<usize>,
    /// How long the stalled rank sleeps.
    pub stall: Duration,
    /// Retry/timeout policy for the recovery protocol.
    pub retry: RetryPolicy,
    /// Kill schedule: `(rank, msg_idx)` pairs. Rank ids are *original*
    /// (pre-shrink) identities; `msg_idx` counts the rank's outbound
    /// logical messages within one world run, so "kill rank 2 at its 5th
    /// send" replays identically on every run. Once killed, a rank
    /// transmits nothing ever again — the failure detector on the
    /// survivors has to notice the silence.
    pub kill_at: Vec<(usize, u64)>,
}

impl FaultPlan {
    /// A plan with no faults (useful as a builder base).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_per_mille: 0,
            corrupt_per_mille: 0,
            delay_per_mille: 0,
            delay: Duration::from_micros(200),
            stalled_rank: None,
            stall: Duration::from_millis(20),
            retry: RetryPolicy::default(),
            kill_at: Vec::new(),
        }
    }

    /// Set the per-mille drop rate.
    pub fn with_drops(mut self, per_mille: u16) -> Self {
        self.drop_per_mille = per_mille;
        self
    }

    /// Set the per-mille corruption rate.
    pub fn with_corruption(mut self, per_mille: u16) -> Self {
        self.corrupt_per_mille = per_mille;
        self
    }

    /// Set the per-mille delay rate.
    pub fn with_delays(mut self, per_mille: u16) -> Self {
        self.delay_per_mille = per_mille;
        self
    }

    /// Stall `rank` for `stall` before it starts working.
    pub fn with_stalled_rank(mut self, rank: usize, stall: Duration) -> Self {
        self.stalled_rank = Some(rank);
        self.stall = stall;
        self
    }

    /// Replace the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Schedule `rank` (original identity) to die immediately before its
    /// `msg_idx`-th outbound logical message of a world run.
    pub fn with_kill_at(mut self, rank: usize, msg_idx: u64) -> Self {
        self.kill_at.push((rank, msg_idx));
        self
    }

    /// The kill ordinal for `rank`, if it is scheduled to die.
    pub fn kill_for(&self, rank: usize) -> Option<u64> {
        self.kill_at
            .iter()
            .filter(|&&(r, _)| r == rank)
            .map(|&(_, m)| m)
            .min()
    }

    /// The fault injected into transmission `attempt` of logical message
    /// `msg_idx` on the edge `src → dst`. `is_last` marks the sender's
    /// final allowed attempt.
    pub fn decide(
        &self,
        src: usize,
        dst: usize,
        msg_idx: u64,
        attempt: u32,
        is_last: bool,
    ) -> FaultAction {
        if is_last && self.retry.guarantee_delivery {
            return FaultAction::Deliver;
        }
        let h = fnv1a([self.seed, src as u64, dst as u64, msg_idx, attempt as u64]);
        let roll = (h % 1000) as u16;
        let drop_end = self.drop_per_mille;
        let corrupt_end = drop_end + self.corrupt_per_mille;
        let delay_end = corrupt_end + self.delay_per_mille;
        if roll < drop_end {
            FaultAction::Drop
        } else if roll < corrupt_end {
            FaultAction::Corrupt
        } else if roll < delay_end {
            FaultAction::Delay
        } else {
            FaultAction::Deliver
        }
    }
}

/// FNV-1a over a word stream.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Frame checksum: FNV-1a over the payload's raw `f64` bit patterns.
pub fn checksum(data: &[Complex64]) -> u64 {
    fnv1a(data.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]))
}

/// A bit-flipped copy of `data` for a corrupted frame. The *checksum*
/// shipped with a corrupted frame is broken separately (see
/// [`BROKEN_CHECKSUM_XOR`]), so detection never depends on the payload
/// mutation actually changing the hash.
pub(crate) fn corrupted_copy(data: &[Complex64], salt: u64) -> Vec<Complex64> {
    let mut out = data.to_vec();
    if !out.is_empty() {
        let idx = (fnv1a([salt]) as usize) % out.len();
        let z = out[idx];
        out[idx] = Complex64::new(
            f64::from_bits(z.re.to_bits() ^ 0x1), // flip the low mantissa bit
            z.im,
        );
    }
    out
}

/// XORed into the true checksum of a corrupted frame so validation is
/// guaranteed to fail (even for empty payloads).
pub(crate) const BROKEN_CHECKSUM_XOR: u64 = 0xdead_beef_dead_beef;

#[cfg(test)]
mod tests {
    use super::*;
    use qt_linalg::c64;

    #[test]
    fn decide_is_deterministic() {
        let plan = FaultPlan::new(42).with_drops(100).with_corruption(50);
        for msg in 0..50u64 {
            for attempt in 0..3u32 {
                let a = plan.decide(0, 1, msg, attempt, false);
                let b = plan.decide(0, 1, msg, attempt, false);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn seed_changes_the_schedule() {
        let a = FaultPlan::new(1).with_drops(500);
        let b = FaultPlan::new(2).with_drops(500);
        let schedule = |p: &FaultPlan| {
            (0..200u64)
                .map(|m| p.decide(0, 1, m, 0, false))
                .collect::<Vec<_>>()
        };
        assert_ne!(schedule(&a), schedule(&b));
    }

    #[test]
    fn guaranteed_last_attempt_always_delivers() {
        let plan = FaultPlan::new(7).with_drops(1000); // drop everything
        for msg in 0..20u64 {
            assert_eq!(plan.decide(0, 1, msg, 3, true), FaultAction::Deliver);
            assert_eq!(plan.decide(0, 1, msg, 0, false), FaultAction::Drop);
        }
    }

    #[test]
    fn fault_rates_roughly_match_per_mille() {
        let plan = FaultPlan::new(99).with_drops(200).with_corruption(100);
        let n = 5000u64;
        let mut drops = 0;
        let mut corrupts = 0;
        for m in 0..n {
            match plan.decide(0, 1, m, 0, false) {
                FaultAction::Drop => drops += 1,
                FaultAction::Corrupt => corrupts += 1,
                _ => {}
            }
        }
        let df = drops as f64 / n as f64;
        let cf = corrupts as f64 / n as f64;
        assert!((df - 0.2).abs() < 0.05, "drop rate {df}");
        assert!((cf - 0.1).abs() < 0.05, "corrupt rate {cf}");
    }

    #[test]
    fn checksum_detects_bit_flips_and_corrupt_frames_never_validate() {
        let data = vec![c64(1.5, -2.5), c64(0.0, 3.25)];
        let ck = checksum(&data);
        let garbage = corrupted_copy(&data, 17);
        assert_ne!(checksum(&garbage), ck);
        // Empty payloads cannot be mutated, but the shipped checksum is
        // broken independently of the payload.
        let empty: Vec<Complex64> = Vec::new();
        assert_eq!(corrupted_copy(&empty, 3), empty);
        assert_ne!(checksum(&empty) ^ BROKEN_CHECKSUM_XOR, checksum(&empty));
    }

    #[test]
    fn kill_schedule_picks_earliest_ordinal_per_rank() {
        let plan = FaultPlan::new(0)
            .with_kill_at(2, 7)
            .with_kill_at(2, 3)
            .with_kill_at(5, 0);
        assert_eq!(plan.kill_for(2), Some(3));
        assert_eq!(plan.kill_for(5), Some(0));
        assert_eq!(plan.kill_for(0), None);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let r = RetryPolicy::default();
        assert!(r.backoff(1) > r.backoff(0));
        assert!(r.backoff(30) <= Duration::from_millis(10));
    }
}

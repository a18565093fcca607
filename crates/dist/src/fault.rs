//! Deterministic rank kills for the thread world.
//!
//! The one fault this system models is a rank dying: a world built with
//! a [`FaultPlan`] kills the scheduled ranks mid-exchange, a world built
//! with `None` never consults this module (see [`crate::comm`]). Frames
//! themselves are never lost, corrupted or delayed — the wire is an
//! in-process channel — so there is no retransmit protocol to exercise.
//!
//! A kill fires at a rank's `n`-th outbound logical message, a count
//! that does not depend on thread scheduling, so a plan replays the
//! *exact same* death on every run — the property that makes chaos tests
//! assertable.

/// Deterministic kill schedule for a whole world.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Kill schedule: `(rank, msg_idx)` pairs. Rank ids are *original*
    /// (pre-shrink) identities; `msg_idx` counts the rank's outbound
    /// logical messages within one world run, so "kill rank 2 at its 5th
    /// send" replays identically on every run. Once killed, a rank
    /// transmits nothing ever again — the failure detector on the
    /// survivors has to notice the silence.
    pub kill_at: Vec<(usize, u64)>,
}

impl FaultPlan {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_schedule_picks_earliest_ordinal_per_rank() {
        let plan = FaultPlan::default()
            .with_kill_at(2, 7)
            .with_kill_at(2, 3)
            .with_kill_at(5, 0);
        assert_eq!(plan.kill_for(2), Some(3));
        assert_eq!(plan.kill_for(5), Some(0));
        assert_eq!(plan.kill_for(0), None);
    }
}

//! Machine models of the two evaluation systems (§5).
//!
//! Compute rates use the paper's own sustained-efficiency measurements
//! (44.5% of peak for the GF state, 6.2% for SSE on Summit; Table 7 implies
//! ~24% SSE efficiency per Piz Daint node for the DaCe kernel and ~4.8% for
//! OMEN's). Network rates are *effective achieved* all-to-all bandwidths
//! calibrated once against Table 8 / Fig. 13 — like every α–β model, they
//! absorb latency, synchronization and message-size effects.

/// An abstract GPU-accelerated cluster.
#[derive(Clone, Debug)]
pub struct Machine {
    pub name: &'static str,
    /// Total node count of the system.
    pub nodes_total: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// MPI ranks per node used by the paper's runs.
    pub procs_per_node: usize,
    /// Double-precision peak per GPU (flop/s).
    pub gpu_peak_flops: f64,
    /// Sustained fraction of peak in the GF phase.
    pub eff_gf: f64,
    /// Sustained fraction of peak in the (DaCe) SSE phase.
    pub eff_sse: f64,
    /// Sustained fraction of peak for OMEN's SSE kernel.
    pub eff_sse_omen: f64,
    /// Effective all-to-all bandwidth per node (B/s) for the DaCe scheme.
    pub alltoall_bw_per_node: f64,
    /// Effective-bandwidth penalty of OMEN's scattered point-to-point
    /// rounds relative to the all-to-all (latency-dominated small
    /// messages).
    pub omen_bw_penalty: f64,
}

impl Machine {
    /// Aggregate sustained compute rate of `nodes` nodes in a phase with
    /// efficiency `eff`.
    pub fn compute_rate(&self, nodes: usize, eff: f64) -> f64 {
        nodes as f64 * self.gpus_per_node as f64 * self.gpu_peak_flops * eff
    }

    /// Aggregate network rate of `nodes` nodes.
    pub fn network_rate(&self, nodes: usize) -> f64 {
        nodes as f64 * self.alltoall_bw_per_node
    }

    /// Total GPUs in `nodes` nodes.
    pub fn gpus(&self, nodes: usize) -> usize {
        nodes * self.gpus_per_node
    }
}

/// CSCS Piz Daint: 5,704 XC50 nodes, 1× P100 (4.7 Tflop/s FP64), Aries.
pub const PIZ_DAINT: Machine = Machine {
    name: "Piz Daint",
    nodes_total: 5704,
    gpus_per_node: 1,
    procs_per_node: 2,
    gpu_peak_flops: 4.7e12,
    eff_gf: 0.50,
    eff_sse: 0.243,
    eff_sse_omen: 0.048,
    alltoall_bw_per_node: 3.0e8,
    omen_bw_penalty: 2.5,
};

/// OLCF Summit: 4,608 nodes, 6× V100 (7.8 Tflop/s FP64), EDR fat tree.
pub const SUMMIT: Machine = Machine {
    name: "Summit",
    nodes_total: 4608,
    gpus_per_node: 6,
    procs_per_node: 6,
    gpu_peak_flops: 7.8e12,
    eff_gf: 0.445,
    eff_sse: 0.062,
    eff_sse_omen: 0.013,
    alltoall_bw_per_node: 3.0e8,
    // Summit's fat tree handles OMEN's scattered rounds at full effective
    // bandwidth (paper comm speedup 79.7× ≈ the pure volume ratio); Piz
    // Daint's Aries sees a ~2.5× effective-bandwidth penalty (417× > the
    // ~170× volume ratio at the largest configuration).
    omen_bw_penalty: 1.0,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_gf_rate_matches_table8() {
        // Table 8, Nkz=11 on 1,852 nodes: 2,922 Pflop in 75.84 s
        // → 38.5 Pflop/s sustained. Model: nodes·6·7.8e12·0.445.
        let rate = SUMMIT.compute_rate(1852, SUMMIT.eff_gf);
        let implied = 2922e15 / 75.84;
        assert!(
            (rate / implied - 1.0).abs() < 0.02,
            "model {rate:.3e} vs implied {implied:.3e}"
        );
    }

    #[test]
    fn summit_sse_rate_matches_table8() {
        // Table 8, Nkz=11: 490 Pflop in 95.46 s on 1,852 nodes.
        let rate = SUMMIT.compute_rate(1852, SUMMIT.eff_sse);
        let implied = 490e15 / 95.46;
        assert!(
            (rate / implied - 1.0).abs() < 0.05,
            "model {rate:.3e} vs implied {implied:.3e}"
        );
    }

    #[test]
    fn machines_have_sane_magnitudes() {
        for m in [&PIZ_DAINT, &SUMMIT] {
            assert!(m.gpu_peak_flops > 1e12);
            assert!(m.eff_sse < m.eff_gf, "SSE is the low-intensity phase");
            assert!(m.eff_sse_omen < m.eff_sse);
            assert!(m.omen_bw_penalty >= 1.0);
        }
        // Summit's aggregate peak ~200 Pflop.
        let peak = SUMMIT.compute_rate(SUMMIT.nodes_total, 1.0);
        assert!(peak > 1.9e17 && peak < 2.3e17);
    }
}

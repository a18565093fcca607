//! Workload definitions and the seeded input generator.
//!
//! The seed drives everything that varies between runs — the on-site
//! disorder realisation of the `scf_*`/`dist_ca2` device, the bias values,
//! sweep lengths, variants and order of the `serve_sweep` requests, and the
//! random matrices of the `linalg` probes. The program under test receives
//! only the generated inputs, never the seed's meaning.

use qt_core::hamiltonian::Disorder;
use qt_core::params::SimParams;
use qt_core::scf::{ScfConfig, Simulation};
use qt_linalg::{c64, Complex64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["scf_gemm128", "scf_sse16", "dist_ca2", "serve_sweep"];

/// `Full` is what `BENCHMARK.json` measures. `Smoke` runs the same code
/// and every check on toy sizes, for `cargo test` (unoptimised build).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// How much of everything one run does.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub scale: Scale,
    pub seed: u64,
    /// The timed section runs at least this long...
    pub seconds: f64,
    /// ...and at least this many operations.
    pub min_ops: usize,
    /// Fresh cold starts behind `setup_s`.
    pub setups: usize,
    /// Repetitions of each layer call in the traced pass.
    pub reps: usize,
}

impl Plan {
    pub fn new(scale: Scale, seed: u64, seconds: f64) -> Plan {
        match scale {
            Scale::Full => Plan {
                scale,
                seed,
                seconds,
                min_ops: 12,
                setups: 5,
                reps: 7,
            },
            Scale::Smoke => Plan {
                scale,
                seed,
                seconds: 0.0,
                min_ops: 3,
                setups: 2,
                reps: 2,
            },
        }
    }
}

/// Electron energy window of the `scf_*`/`dist_ca2` devices (eV).
pub const WINDOW: (f64, f64) = (-1.2, 1.2);

/// Inputs of a single-point SCF workload (also the `dist_ca2` device).
pub struct ScfInput {
    pub params: SimParams,
    pub disorder: Disorder,
    /// Two forced Born iterations: the first from `Σ = Π = 0`, the second
    /// on mixed self-energies with the residual test live.
    pub cfg: ScfConfig,
    /// Terminal current of one operation at seed 1, recorded from the
    /// first run of this benchmark (see README, "Baseline").
    pub ref_current_seed1: f64,
}

impl ScfInput {
    /// A fresh simulation: empty boundary cache, unset kernel selectors.
    pub fn build(&self) -> Result<Simulation, String> {
        Simulation::disordered(self.params, WINDOW.0, WINDOW.1, self.disorder)
    }
}

/// `scf_gemm128`: 128-wide electron blocks (96 phonon), few energies — the
/// GF phase (RGF, blocked LU, packed GEMM) is nearly the whole iteration.
const GEMM128: SimParams = SimParams {
    nkz: 1,
    nqz: 1,
    ne: 4,
    nw: 2,
    na: 128,
    nb: 4,
    norb: 4,
    bnum: 4,
};

/// `scf_sse16` and `dist_ca2`: 16-wide blocks, many (kz, E, qz, ω) points —
/// the SSE kernels dominate and the GF phase is a small share.
const SSE16: SimParams = SimParams {
    nkz: 2,
    nqz: 2,
    ne: 32,
    nw: 6,
    na: 64,
    nb: 4,
    norb: 4,
    bnum: 16,
};

/// Toy device of the smoke scale (the workspace's usual test size).
const SMOKE: SimParams = SimParams {
    nkz: 2,
    nqz: 2,
    ne: 10,
    nw: 2,
    na: 8,
    nb: 3,
    norb: 2,
    bnum: 4,
};

/// The device of `workload` (`scf_gemm128`, `scf_sse16` or `dist_ca2`).
pub fn scf_input(workload: &str, plan: &Plan) -> ScfInput {
    let (params, ref_current_seed1) = match (plan.scale, workload) {
        (Scale::Smoke, _) => (SMOKE, SMOKE_REF_CURRENT),
        (Scale::Full, "scf_gemm128") => (GEMM128, GEMM128_REF_CURRENT),
        (Scale::Full, _) => (SSE16, SSE16_REF_CURRENT),
    };
    ScfInput {
        params,
        // Vacancy-free: every seed keeps the block structure (and so the
        // cost) of the clean device; only the on-site energies move.
        disorder: Disorder {
            seed: plan.seed,
            vacancy_fraction: 0.0,
            onsite_amplitude: 0.01,
            vacancy_level: 0.0,
        },
        cfg: ScfConfig {
            max_iterations: 2,
            tolerance: 0.0,
            ..ScfConfig::default()
        },
        ref_current_seed1,
    }
}

// Seed-1 reference currents (IEEE doubles as printed by `{:e}`).
const GEMM128_REF_CURRENT: f64 = 5.876785442576601e-6;
const SSE16_REF_CURRENT: f64 = 1.904439739975934e-2;
const SMOKE_REF_CURRENT: f64 = 1.1197204929278873e-2;

/// The two `serve_sweep` variants, owned by the benchmark: `(file, text)`.
pub fn serve_scenarios(scale: Scale) -> [(&'static str, &'static str); VARIANTS] {
    match scale {
        Scale::Full => [
            (
                "workloads/serve_nanowire.toml",
                include_str!("../workloads/serve_nanowire.toml"),
            ),
            (
                "workloads/serve_gaa.toml",
                include_str!("../workloads/serve_gaa.toml"),
            ),
        ],
        Scale::Smoke => [
            (
                "workloads/smoke_nanowire.toml",
                include_str!("../workloads/smoke_nanowire.toml"),
            ),
            (
                "workloads/smoke_gaa.toml",
                include_str!("../workloads/smoke_gaa.toml"),
            ),
        ],
    }
}

/// Registered variants of the service workload.
pub const VARIANTS: usize = 2;

/// Bias grid of the service workload (V): 0.05, 0.06, … 0.45. A grid, not
/// a continuum, so requests share bias points the way repeated sweeps of
/// one device do and the warm store sees both exact and near hits. Zero
/// bias is left out: its current vanishes and a relative check is void.
pub fn bias_grid() -> Vec<f64> {
    (5..=45).map(|i| f64::from(i) / 100.0).collect()
}

/// One generated client request.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    pub variant: usize,
    pub biases: Vec<f64>,
}

/// The set-up sweeps: per variant, a coarse pass over the whole bias grid
/// (every fifth point; the two ends and the middle at smoke scale). It
/// fills the boundary cache, the workspace arenas and the warm store, so
/// every timed point starts from a neighbour at most 0.02 V away.
pub fn warmup_sweeps(scale: Scale) -> Vec<SweepSpec> {
    let step = match scale {
        Scale::Full => 5,
        Scale::Smoke => 20,
    };
    let coarse: Vec<f64> = bias_grid().into_iter().step_by(step).collect();
    (0..VARIANTS)
        .map(|variant| SweepSpec {
            variant,
            biases: coarse.clone(),
        })
        .collect()
}

/// `count` requests drawn from `seed`: variant, start bias and a length of
/// 3 to 5 consecutive grid points each (an ascending IV segment).
pub fn serve_requests(seed: u64, count: usize) -> Vec<SweepSpec> {
    let grid = bias_grid();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_5eed);
    (0..count)
        .map(|_| {
            let variant = rng.random_range(0..VARIANTS);
            let len = rng.random_range(3..=5usize);
            let start = rng.random_range(0..=grid.len() - len);
            SweepSpec {
                variant,
                biases: grid[start..start + len].to_vec(),
            }
        })
        .collect()
}

/// `len` complex entries uniform in the unit square, for the GEMM/LU probes.
pub fn random_complex(rng: &mut StdRng, len: usize) -> Vec<Complex64> {
    (0..len)
        .map(|_| c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
        .collect()
}

/// The generator behind the `linalg` probes.
pub fn probe_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x11a1_96ea)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert_eq!(serve_requests(3, 50), serve_requests(3, 50));
        assert_ne!(serve_requests(3, 50), serve_requests(4, 50));
        let plan = Plan::new(Scale::Full, 9, 1.0);
        let (a, b) = (scf_input("scf_sse16", &plan), scf_input("dist_ca2", &plan));
        assert_eq!(a.params, b.params);
        assert_eq!(a.disorder.seed, 9);
        assert_eq!(a.disorder.onsite_shift(5), b.disorder.onsite_shift(5));
        let mut r1 = probe_rng(1);
        let mut r2 = probe_rng(1);
        assert_eq!(random_complex(&mut r1, 8), random_complex(&mut r2, 8));
    }

    #[test]
    fn requests_stay_on_the_grid_and_in_the_scenario_windows() {
        let grid = bias_grid();
        assert_eq!(grid.len(), 41);
        let warmups = [warmup_sweeps(Scale::Full), warmup_sweeps(Scale::Smoke)].concat();
        for r in serve_requests(1, 500).iter().chain(&warmups) {
            assert!(r.variant < VARIANTS);
            assert!(r.biases.iter().all(|b| grid.contains(b)));
        }
        for r in serve_requests(1, 500) {
            assert!((3..=5).contains(&r.biases.len()));
            assert!(r.biases.windows(2).all(|w| w[1] > w[0]));
        }
        // Every variant's warm-up covers the grid ends, at both scales.
        for scale in [Scale::Full, Scale::Smoke] {
            let w = &warmup_sweeps(scale)[0].biases;
            assert_eq!((w[0], *w.last().unwrap()), (0.05, 0.45));
            assert_eq!(serve_scenarios(scale).len(), VARIANTS);
        }
    }

    #[test]
    fn block_sizes_are_what_the_workload_names_say() {
        assert_eq!(GEMM128.validate(), Ok(()));
        assert_eq!(SSE16.validate(), Ok(()));
        assert_eq!(GEMM128.e_block_size(), 128);
        assert_eq!(GEMM128.ph_block_size(), 96);
        assert_eq!(SSE16.e_block_size(), 16);
    }
}

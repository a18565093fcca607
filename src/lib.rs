//! # dace-omen — data-centric communication-avoiding quantum transport
//!
//! A from-scratch Rust reproduction of *"Optimizing the Data Movement in
//! Quantum Transport Simulations via Data-Centric Parallel Programming"*
//! (Ziogas et al., SC'19): a dissipative NEGF simulator (electrons +
//! phonons + scattering self-energies), the SDFG-style data-centric IR and
//! its transformations, the communication-avoiding distribution scheme, and
//! the performance/communication models behind the paper's evaluation.
//!
//! The crate is a facade: each subsystem lives in its own crate and is
//! re-exported here.
//!
//! ```
//! use dace_omen::prelude::*;
//!
//! let params = SimParams { nkz: 2, nqz: 2, ne: 10, nw: 2, na: 8, nb: 3, norb: 2, bnum: 4 };
//! let sim = Simulation::new(params, -1.2, 1.2);
//! let result = run_scf(&sim, &ScfConfig::default()).unwrap();
//! assert!(result.iterations >= 1);
//! ```

pub use qt_core as core;
pub use qt_dist as dist;
pub use qt_linalg as linalg;
pub use qt_model as model;
pub use qt_sdfg as sdfg;

/// The commonly-used surface of the whole workspace.
pub mod prelude {
    pub use qt_core::checkpoint::{CheckpointConfig, ScfCheckpoint};
    pub use qt_core::device::Device;
    pub use qt_core::gf::{
        electron_gf_phase, phonon_gf_phase, Contacts, ElectronSelfEnergy, GfConfig,
        PhononSelfEnergy,
    };
    pub use qt_core::grids::Grids;
    pub use qt_core::hamiltonian::{ElectronModel, PhononModel};
    pub use qt_core::health::{CoverageReport, HealthPolicy, NumericalError};
    pub use qt_core::observables;
    pub use qt_core::params::SimParams;
    pub use qt_core::scf::{
        run_scf, run_scf_with, CancelToken, ScfConfig, ScfError, ScfOptions, ScfResult, Simulation,
        WarmStart,
    };
    pub use qt_core::sse::{self, SseVariant};
    pub use qt_dist::schemes::{dace_scheme, omen_scheme, SseDistContext};
    pub use qt_dist::volume;
    pub use qt_linalg::{c64, Complex64, Matrix, Tensor};
    pub use qt_model::{optimal_tiling, predict, Variant, PIZ_DAINT, SUMMIT};
    pub use qt_sdfg::library as sdfg_library;
}

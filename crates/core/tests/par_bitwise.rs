//! Thread count must not show in the output: two Born iterations fanned out
//! over `qt_linalg::par` equal the same two under `par::sequential` bit for
//! bit — observables, Σ≷ and Π≷, under both multiply strategies.
//!
//! One test in a binary of its own, so nothing else holds `par`'s job slot
//! and the fanned-out runs really fan out (on a one-core host both sides
//! are the same inline run and the test is vacuous).

use qt_core::params::SimParams;
use qt_core::rgf::MultiplyStrategy;
use qt_core::scf::{run_scf, ScfConfig, ScfResult, Simulation};
use qt_linalg::{par, Tensor};

/// The grid and device of `sse::testutil::fixture`: 4-wide electron blocks,
/// every phase fans out over points, atoms and pairs.
const SMALL: SimParams = SimParams {
    nkz: 2,
    nqz: 2,
    ne: 8,
    nw: 2,
    na: 8,
    nb: 3,
    norb: 2,
    bnum: 4,
};

/// 64-wide electron blocks (16 atoms × 4 orbitals per slab): `64³` is the
/// GEMM layer's parallel threshold, so electron points run in sequence with
/// band-split products while the 48-wide phonon points still fan out.
const WIDE: SimParams = SimParams {
    nkz: 1,
    nqz: 1,
    ne: 6,
    nw: 2,
    na: 48,
    nb: 4,
    norb: 4,
    bnum: 3,
};

fn bits(t: &Tensor) -> Vec<(u64, u64)> {
    t.as_slice()
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

/// Everything two runs must share.
type Outcome = (Vec<u64>, [Vec<(u64, u64)>; 4]);

fn two_born_iterations(p: SimParams, strategy: MultiplyStrategy) -> Outcome {
    let sim = Simulation::new(p, -1.2, 1.2);
    let mut cfg = ScfConfig {
        max_iterations: 2,
        tolerance: 0.0,
        ..Default::default()
    };
    cfg.gf.strategy = strategy;
    let out: ScfResult = run_scf(&sim, &cfg).expect("SCF");
    assert_eq!(out.iterations, 2);
    (
        out.current_history.iter().map(|c| c.to_bits()).collect(),
        [
            bits(&out.sigma.lesser),
            bits(&out.sigma.greater),
            bits(&out.pi.lesser),
            bits(&out.pi.greater),
        ],
    )
}

#[test]
fn fanned_out_and_sequential_runs_agree_bit_for_bit() {
    let cases = [
        ("small/dense", SMALL, MultiplyStrategy::Dense),
        ("wide/dense", WIDE, MultiplyStrategy::Dense),
        ("small/csrmm", SMALL, MultiplyStrategy::Csrmm),
        ("wide/csrmm", WIDE, MultiplyStrategy::Csrmm),
    ];
    for (name, p, strategy) in cases {
        let fanned = two_born_iterations(p, strategy);
        let sequential = par::sequential(|| two_born_iterations(p, strategy));
        assert_eq!(fanned.0, sequential.0, "{name}: current history");
        for (what, (f, s)) in ["Σ<", "Σ>", "Π<", "Π>"]
            .into_iter()
            .zip(fanned.1.iter().zip(&sequential.1))
        {
            assert!(f == s, "{name}: {what} differs between thread counts");
        }
    }
}

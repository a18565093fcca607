//! Property tests for the survivor re-tiling and its exact volume model.
//!
//! Two invariants carry the whole elastic-recovery design:
//!
//! 1. **Exact partition** — after any sequence of rank deaths, the work
//!    units are partitioned exactly across the survivors (every unit
//!    owned by exactly one survivor) and a death migrates *only* the
//!    dead rank's units: survivor-owned tiles never move, so their state
//!    never needs replaying.
//! 2. **Exact accounting** — `dace_elastic_rank_sent_bytes` predicts the
//!    measured per-slot send volume of the elastic scheme byte-for-byte,
//!    for any survivor subset and owner map.

use proptest::prelude::*;
use qt_core::device::Device;
use qt_core::gf::{self, GfConfig};
use qt_core::grids::Grids;
use qt_core::hamiltonian::{ElectronModel, PhononModel};
use qt_core::params::SimParams;
use qt_core::sse::{self, SseInputs};
use qt_dist::volume::dace_elastic_rank_sent_bytes;
use qt_dist::{ca_exchange, maybe_rebalance, ElasticPolicy, ElasticTiling};
use qt_linalg::Tensor;

fn small_params(te: usize, ta: usize) -> SimParams {
    SimParams {
        nkz: 2,
        nqz: 2,
        ne: 6 * te,
        nw: 2,
        na: 6 * ta.max(2),
        nb: 3,
        norb: 2,
        bnum: 3,
    }
}

/// Deterministic kill order derived from a seed: a permutation of
/// `0..procs` by repeated modular selection.
fn kill_order(seed: u64, procs: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..procs).collect();
    let mut order = Vec::with_capacity(procs);
    let mut s = seed;
    while !pool.is_empty() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.push(pool.remove((s >> 33) as usize % pool.len()));
    }
    order
}

/// The partition invariant after one removal: the dead rank's units all
/// land on survivors, no survivor-owned unit moves, and the units
/// are owned by exactly one survivor each.
fn check_removal(tiling: &mut ElasticTiling, dead: usize) {
    let before = tiling.owner.clone();
    let moved = tiling.remove_rank(dead);
    assert_eq!(
        moved,
        (0..before.len())
            .filter(|&u| before[u] == dead)
            .collect::<Vec<_>>(),
        "exactly the dead rank's units migrate"
    );
    for (u, &was) in before.iter().enumerate() {
        if was != dead {
            assert_eq!(
                tiling.owner[u], was,
                "unit {u} owned by a survivor must not move"
            );
        }
    }
    if tiling.world_size() == 0 {
        return;
    }
    // Exact partition: survivors' unit lists are disjoint and cover all.
    let mut seen = vec![0usize; tiling.procs()];
    for &s in &tiling.survivors {
        for u in tiling.units_of(s) {
            seen[u] += 1;
        }
    }
    assert!(
        seen.iter().all(|&n| n == 1),
        "units multiply/un-owned: {seen:?}"
    );
    assert!(tiling.owner.iter().all(|&o| tiling.is_survivor(o)));
    // Balance: loads differ by at most 1 more than the pre-death spread
    // can justify — with every unit migrating to the least-loaded
    // survivor, max-min load stays within 1 when starting from uniform.
}

struct Fx {
    p: SimParams,
    dev: Device,
    grids: Grids,
    dh: Tensor,
    gl: Tensor,
    gg: Tensor,
    dl: Tensor,
    dg: Tensor,
}

fn fixture(te: usize, ta: usize) -> Fx {
    let p = small_params(te, ta);
    let dev = Device::new(&p);
    let em = ElectronModel::for_params(&p);
    let pm = PhononModel::default();
    let grids = Grids::new(&p, -1.2, 1.2);
    let cfg = GfConfig::default();
    let egf = gf::electron_gf_phase(
        &dev,
        &em,
        &p,
        &grids,
        &gf::ElectronSelfEnergy::zeros(&p),
        &cfg,
    )
    .unwrap();
    let pgf = gf::phonon_gf_phase(
        &dev,
        &pm,
        &p,
        &grids,
        &gf::PhononSelfEnergy::zeros(&p),
        &cfg,
    )
    .unwrap();
    let (dl, dg) = sse::preprocess_d(&dev, &p, &pgf);
    Fx {
        dh: em.dh_tensor(&dev),
        gl: egf.g_lesser,
        gg: egf.g_greater,
        dl,
        dg,
        p,
        dev,
        grids,
    }
}

fn ctx(fx: &Fx) -> SseInputs<'_> {
    SseInputs {
        p: &fx.p,
        dev: &fx.dev,
        grids: &fx.grids,
        dh: &fx.dh,
        g_lesser: &fx.gl,
        g_greater: &fx.gg,
        d_lesser_pre: &fx.dl,
        d_greater_pre: &fx.dg,
    }
}

/// Measured per-slot bytes of one elastic exchange on this survivor set.
fn measured_sent(fx: &Fx, tiling: &ElasticTiling) -> Vec<u64> {
    let (_, _, stats) =
        ca_exchange(&ctx(fx), tiling, &ElasticPolicy::default()).expect("no faults");
    stats.rank_sent
}

#[test]
fn retiling_is_an_exact_partition_for_all_kill_orders() {
    // Exhaustive over every kill permutation of the 2×2 grid (24 orders)
    // and a seeded sample of the 2×3 grid's 720.
    let p22 = small_params(2, 2);
    for a in 0..4usize {
        for b in (0..4).filter(|&b| b != a) {
            for c in (0..4).filter(|&c| c != a && c != b) {
                let d = 6 - a - b - c;
                let mut tiling = ElasticTiling::new(&p22, 2, 2);
                for dead in [a, b, c, d] {
                    check_removal(&mut tiling, dead);
                }
                assert_eq!(tiling.world_size(), 0);
            }
        }
    }
    let p23 = small_params(2, 3);
    for seed in 0..40u64 {
        let mut tiling = ElasticTiling::new(&p23, 2, 3);
        for dead in kill_order(seed, 6) {
            check_removal(&mut tiling, dead);
        }
    }
}

#[test]
fn retiling_keeps_loads_balanced() {
    // Killing from a uniform start, migrate-to-least-loaded keeps the
    // survivor load spread within one unit at every step.
    let p = small_params(2, 3);
    for seed in 0..20u64 {
        let mut tiling = ElasticTiling::new(&p, 2, 3);
        for dead in kill_order(seed.wrapping_mul(977), 6) {
            tiling.remove_rank(dead);
            if tiling.world_size() == 0 {
                break;
            }
            let loads: Vec<usize> = tiling.survivors.iter().map(|&s| tiling.load(s)).collect();
            let (lo, hi) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
            assert!(hi - lo <= 1, "unbalanced loads {loads:?}");
        }
    }
}

#[test]
fn elastic_volume_model_matches_measured_bytes_per_slot() {
    let fx = fixture(2, 2);
    let halo = fx.dev.max_neighbor_index_distance();
    let mut tiling = ElasticTiling::new(&fx.p, 2, 2);
    // Full world, then three successive survivor sets down to one rank:
    // the model must stay byte-for-byte exact on every one.
    assert_eq!(
        measured_sent(&fx, &tiling),
        dace_elastic_rank_sent_bytes(&fx.p, halo, &tiling)
    );
    for dead in [1usize, 3, 0] {
        tiling.remove_rank(dead);
        assert_eq!(
            measured_sent(&fx, &tiling),
            dace_elastic_rank_sent_bytes(&fx.p, halo, &tiling),
            "model diverged after killing rank {dead}"
        );
    }
    // Weighted owner maps on the full world: a lopsided map, the all-zero
    // collapse onto rank 0, and the map one measured re-tiling produces.
    let lopsided = ElasticTiling::weighted(&fx.p, 2, 2, 4, &[1.0, 10.0, 1.0, 1.0]);
    assert_ne!(lopsided.owner, ElasticTiling::uniform(&fx.p, 2, 2, 4).owner);
    let collapsed = ElasticTiling::weighted(&fx.p, 2, 2, 4, &[0.0; 4]);
    assert_eq!(collapsed.units_of(0).len(), 4);
    let mut retiled = collapsed.clone();
    let (_, _, stats) = ca_exchange(&ctx(&fx), &retiled, &ElasticPolicy::default()).unwrap();
    let moved = maybe_rebalance(&mut retiled, &stats.balance.unwrap(), 1.0);
    assert!(
        !moved.is_empty(),
        "re-tiling a collapsed map must move units"
    );
    for (name, tiling) in [
        ("lopsided", &lopsided),
        ("collapsed", &collapsed),
        ("retiled", &retiled),
    ] {
        assert_eq!(
            measured_sent(&fx, tiling),
            dace_elastic_rank_sent_bytes(&fx.p, halo, tiling),
            "model diverged on the {name} owner map"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any seeded kill sequence on any small tile grid preserves the
    /// exact-partition and only-orphans-move invariants at every step.
    #[test]
    fn retile_partition_invariants_hold(
        seed in 0u64..1u64 << 32,
        te in 1usize..=3,
        ta in 1usize..=3,
    ) {
        let p = small_params(te, ta);
        let mut tiling = ElasticTiling::new(&p, te, ta);
        for dead in kill_order(seed, te * ta) {
            check_removal(&mut tiling, dead);
        }
        prop_assert!(tiling.world_size() == 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The elastic volume model is exact for a random survivor subset of
    /// the 2×2 grid (the expensive end-to-end form of the invariant; case
    /// count kept small because each case runs a full exchange).
    #[test]
    fn elastic_volume_model_is_exact_for_random_survivors(seed in 0u64..1u64 << 32) {
        let fx = fixture(2, 2);
        let halo = fx.dev.max_neighbor_index_distance();
        let mut tiling = ElasticTiling::new(&fx.p, 2, 2);
        let kills = kill_order(seed, 4);
        for &dead in kills.iter().take(1 + (seed as usize) % 3) {
            tiling.remove_rank(dead);
        }
        prop_assert!(
            measured_sent(&fx, &tiling) == dace_elastic_rank_sent_bytes(&fx.p, halo, &tiling)
        );
    }
}

//! The SSE flop models against the process-global flop counter. One test
//! in a binary of its own: the counter has no scope, so any sibling test
//! running GEMMs in parallel would leak into the deltas measured here.

use qt_core::device::Device;
use qt_core::flops::{
    pair_count_tile, sse_dace_flops, sse_dace_flops_exact, sse_dace_flops_tile, sse_omen_flops,
    sse_omen_flops_exact,
};
use qt_core::grids::Grids;
use qt_core::hamiltonian::ElectronModel;
use qt_core::params::{SimParams, N3D};
use qt_core::sse::dace::{sigma_atom, SseView};
use qt_core::sse::{self, SseInputs, SseVariant};
use qt_linalg::{count_flops, Complex64, Tensor};

#[test]
fn flop_models_describe_the_kernels_that_run() {
    let p = SimParams::test_small();
    let dev = Device::skewed(&p, 1, 1);
    let grids = Grids::new(&p, -1.2, 1.2);
    let dh = ElectronModel::for_params(&p).dh_tensor(&dev);
    // Flop counts do not depend on the data: zero tensors will do.
    let g = Tensor::zeros(&[p.nkz, p.ne, p.na, p.norb, p.norb]);
    let d = Tensor::zeros(&[p.nqz, p.nw, p.na, p.nb, N3D, N3D]);
    let inputs = SseInputs {
        dev: &dev,
        p: &p,
        grids: &grids,
        dh: &dh,
        g_lesser: &g,
        g_greater: &g,
        d_lesser_pre: &d,
        d_greater_pre: &d,
    };

    // The cost model's tile count is what one tile call executes, plus the
    // ∇H·G products on the tile's halo energies.
    let reach = dev.max_neighbor_index_distance();
    for (e_out, a_out) in [(4..8, 2..9), (0..5, 0..4), (0..p.ne, 0..p.na)] {
        let e_halo = e_out.start.saturating_sub(p.nw)..(e_out.end + p.nw).min(p.ne);
        let a_win = a_out.start.saturating_sub(reach)..(a_out.end + reach).min(p.na);
        let nn = p.norb * p.norb;
        let g_win = vec![Complex64::ZERO; a_win.len() * p.nkz * e_halo.len() * nn];
        let d_win = vec![Complex64::ZERO; p.nqz * p.nw * a_win.len() * p.nb * N3D * N3D];
        let view = SseView {
            e_out: e_out.clone(),
            e_halo: e_halo.clone(),
            a_win,
            g: [&g_win, &g_win],
            d: [&d_win, &d_win],
        };
        let mut sig = [0, 1].map(|_| vec![Complex64::ZERO; p.nkz * e_out.len() * nn]);
        let ((), measured) = count_flops(|| {
            for a in a_out.clone() {
                let [sig_l, sig_g] = &mut sig;
                sigma_atom(&inputs, &view, a, [sig_l, sig_g]);
            }
        });
        let halo_term = 48
            * pair_count_tile(&dev, &p, &a_out)
            * (p.nkz * p.norb * p.norb * p.norb * (e_halo.len() - e_out.len())) as u64;
        let model = sse_dace_flops_tile(&p, &dev, &e_out, &a_out);
        assert_eq!(measured, model + halo_term, "tile {e_out:?} x {a_out:?}");
    }

    // The exact models reproduce the instrumented kernels *to the flop* —
    // the report's `exact = true` residual class.
    let (_, flops_omen) = count_flops(|| sse::sigma(&inputs, SseVariant::Omen));
    let (_, flops_dace) = count_flops(|| sse::sigma(&inputs, SseVariant::Dace));
    assert_eq!(flops_omen, sse_omen_flops_exact(&p, &dev), "omen");
    assert_eq!(flops_dace, sse_dace_flops_exact(&p, &dev), "dace");
    // Redundancy removal cuts the ∇H·G stage by ~Nqz·Nω; the total
    // reduction approaches 2× for large Nqz·Nω (Table 3). Energy-window
    // clamps at this size leave a generous band around the analytic ratio.
    let measured = flops_omen as f64 / flops_dace as f64;
    let analytic = sse_omen_flops(&p) / sse_dace_flops(&p);
    assert!(
        measured > 1.0,
        "dace {flops_dace} must be below omen {flops_omen}"
    );
    assert!(
        (measured / analytic - 1.0).abs() < 0.8,
        "measured {measured:.2} vs analytic {analytic:.2}"
    );
}

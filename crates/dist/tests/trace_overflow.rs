//! A traced exchange that overflows its trace lanes still exports a valid
//! trace: a flow pair is one record, so an overwrite loses whole arrows
//! and never leaves a start without its finish, and the export states
//! what it dropped.
//!
//! One test, in its own binary: it shrinks the process-global recorder.

use qt_core::device::Device;
use qt_core::gf::{self, GfConfig};
use qt_core::grids::Grids;
use qt_core::hamiltonian::{ElectronModel, PhononModel};
use qt_core::params::SimParams;
use qt_core::sse::{self, SseInputs};
use qt_dist::{ca_exchange, ElasticPolicy, ElasticTiling};
use qt_telemetry::json::Json;
use qt_telemetry::recorder::{self, SPANS, TRACE};
use qt_telemetry::trace;

#[test]
fn an_overflowing_trace_still_validates_and_counts_its_drops() {
    let p = SimParams {
        nkz: 2,
        nqz: 2,
        ne: 12,
        nw: 2,
        na: 12,
        nb: 3,
        norb: 2,
        bnum: 3,
    };
    let dev = Device::new(&p);
    let em = ElectronModel::for_params(&p);
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
    let pm = PhononModel::default();
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
    let dh = em.dh_tensor(&dev);
    let inputs = SseInputs {
        p: &p,
        dev: &dev,
        grids: &grids,
        dh: &dh,
        g_lesser: &egf.g_lesser,
        g_greater: &egf.g_greater,
        d_lesser_pre: &dl,
        d_greater_pre: &dg,
    };

    // Two records per lane: every rank receives more messages than that.
    const CAP: usize = 2;
    qt_telemetry::reset_all();
    recorder::set_capacity(CAP);
    recorder::switch(SPANS | TRACE, true);
    let tiling = ElasticTiling::new(&p, 2, 2);
    // The trace must validate whether the exchange completes or a false
    // death accusation on a loaded host cuts it short.
    let _ = ca_exchange(&inputs, &tiling, &ElasticPolicy::default());
    recorder::switch(SPANS | TRACE, false);
    let json = qt_telemetry::export_chrome_trace();
    recorder::set_capacity(recorder::DEFAULT_CAPACITY);

    trace::validate_chrome_trace(&json).expect("an overflowed trace still validates");
    let doc = Json::parse(&json).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    let kept = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("s"))
        .count();
    assert!(kept > 0 && kept <= 4 * CAP, "{kept} flow pairs kept");
    let dropped = |k: &str| {
        doc.get("otherData")
            .and_then(|o| o.get(k))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("otherData lacks {k}"))
    };
    assert!(dropped("dropped_flows") > 0, "the flow lanes overflowed");
    dropped("dropped_slices");
}

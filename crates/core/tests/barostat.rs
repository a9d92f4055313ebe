//! NPT on the simulated machine: the barostat path of Figure 2 — virial
//! partials computed in the HTIS pair pipelines, globally reduced
//! together with the kinetic energy, box rescaled — against the
//! reference engine.

use anton_core::{AntonConfig, AntonMdEngine};
use anton_md::integrate::ATM;
use anton_md::{Barostat, MdParams, ReferenceEngine, SystemBuilder, Thermostat};
use anton_topo::TorusDims;

fn npt_params() -> MdParams {
    let mut md = MdParams::new(4.5, [16; 3]);
    md.dt = 0.5;
    md.long_range_interval = 2;
    md.thermostat = Some(Thermostat {
        target: 300.0,
        tau: 100.0,
        interval: 2,
    });
    md.barostat = Some(Barostat {
        target: ATM,
        tau: 200.0,
        kappa: 20.0,
        interval: 2,
    });
    md
}

#[test]
fn anton_barostat_tracks_the_reference_engine() {
    let sys = SystemBuilder::tiny(240, 22.0, 808).build();
    let md = npt_params();
    let config = AntonConfig::new(md.clone());
    let mut anton = AntonMdEngine::new(sys.clone(), config, TorusDims::new(2, 2, 2));
    let mut reference = ReferenceEngine::new(sys, md);
    let v0 = reference.sys.pbox.volume();
    for _ in 0..6 {
        anton.step();
        reference.step();
    }
    let va = anton.system().pbox.volume();
    let vr = reference.sys.pbox.volume();
    // Both engines applied the same barostat decisions (within
    // fixed-point noise on the virial).
    assert!(
        (va - vr).abs() < 2e-3 * vr,
        "anton box {va} Å³ vs reference {vr} Å³"
    );
    // And the box actually moved (the fresh lattice is far from 1 atm).
    assert!(
        (va - v0).abs() > 1e-6 * v0,
        "barostat had no effect: {v0} → {va}"
    );
}

#[test]
fn reduced_virial_matches_host_side_sum() {
    let sys = SystemBuilder::tiny(240, 22.0, 809).build();
    let md = npt_params();
    let config = AntonConfig::new(md);
    let mut anton = AntonMdEngine::new(sys, config, TorusDims::new(2, 2, 2));
    anton.step(); // step 1: no reduce (interval 2)
    anton.step(); // step 2: reduce runs
    let st = anton.state.lock().unwrap();
    let (ke, virial) = st.scratch.reduced.expect("reduction ran on step 2");
    // The reduced virial equals the per-node partials' sum.
    let host: f64 = st.scratch.virial.iter().sum();
    assert!(
        (virial - host).abs() < 1e-9 * host.abs().max(1.0),
        "{virial} vs {host}"
    );
    // The reduced kinetic energy equals the direct host-side total.
    let direct = anton_md::integrate::total_kinetic(&st.sys);
    // The reduce happened before any post-reduction rescale applied by
    // the engine, so compare loosely (thermostat λ was applied after).
    assert!(
        (ke - direct).abs() < 0.05 * direct.max(1e-9),
        "ke {ke} vs direct {direct}"
    );
}

#[test]
fn barostat_without_thermostat_still_reduces() {
    let sys = SystemBuilder::tiny(150, 19.0, 810).build();
    let mut md = npt_params();
    md.thermostat = None;
    let config = AntonConfig::new(md);
    let mut anton = AntonMdEngine::new(sys, config, TorusDims::new(2, 2, 2));
    let v0 = anton.system().pbox.volume();
    anton.step();
    let t = anton.step();
    assert!(t.thermostat, "the reduce phase must run for the barostat");
    let v1 = anton.system().pbox.volume();
    assert!((v1 - v0).abs() > 0.0, "box rescale applied");
}

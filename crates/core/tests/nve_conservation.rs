//! NVE energy conservation through the full distributed pipeline: the
//! strongest end-to-end physics check — forces travel as fixed-point
//! packets through simulated accumulation memories, yet the integrated
//! trajectory must conserve total energy like the reference engine does.

use anton_core::{AntonConfig, AntonMdEngine};
use anton_md::integrate::total_kinetic;
use anton_md::{MdParams, SystemBuilder};
use anton_topo::TorusDims;

#[test]
fn distributed_nve_conserves_energy() {
    let sys = SystemBuilder::tiny(150, 18.0, 2718).build();
    let mut md = MdParams::nve(4.5, [16; 3]);
    md.dt = 0.5;
    md.long_range_interval = 1; // fresh long-range every step for NVE
    let config = AntonConfig::new(md);
    let mut eng = AntonMdEngine::new(sys, config, TorusDims::new(2, 2, 2));

    let e0 = eng.last_energies.potential() + total_kinetic(&eng.state.lock().unwrap().sys);
    let mut kes = Vec::new();
    for _ in 0..80 {
        eng.step();
        kes.push(total_kinetic(&eng.state.lock().unwrap().sys));
    }
    let e1 = eng.last_energies.potential() + total_kinetic(&eng.state.lock().unwrap().sys);
    let ke_scale = kes.iter().cloned().fold(f64::MIN, f64::max).max(1.0);
    let drift = (e1 - e0).abs() / ke_scale;
    assert!(
        drift < 0.05,
        "NVE drift through the distributed machine: {drift:.4} (e0={e0:.2}, e1={e1:.2})"
    );
}

#[test]
fn distributed_nve_conserves_momentum() {
    let sys = SystemBuilder::tiny(90, 15.0, 2719).build();
    let mut md = MdParams::nve(4.0, [16; 3]);
    md.dt = 0.5;
    let config = AntonConfig::new(md);
    let mut eng = AntonMdEngine::new(sys, config, TorusDims::new(2, 2, 2));
    for _ in 0..40 {
        eng.step();
    }
    let sys = eng.system();
    let p = sys.total_momentum();
    let scale: f64 = sys.atoms.iter().map(|a| (a.vel * a.mass).norm()).sum();
    assert!(
        p.norm() < 0.05 * scale.max(1e-12),
        "net momentum {p:?} vs scale {scale}"
    );
}

//! The Anton-mapped engine must compute the same physics as the
//! single-process reference engine: same forces (up to fixed-point
//! quantization in the accumulation memories), same energies, and
//! matching short trajectories.

use anton_core::{AntonConfig, AntonMdEngine};
use anton_md::{MdParams, ReferenceEngine, SystemBuilder, Vec3};
use anton_topo::TorusDims;

fn small_setup() -> (anton_md::ChemicalSystem, MdParams) {
    let sys = SystemBuilder::tiny(240, 22.0, 314).build();
    let mut md = MdParams::new(4.5, [16; 3]);
    md.dt = 0.5;
    md.long_range_interval = 2;
    (sys, md)
}

fn force_close(a: Vec3, b: Vec3) -> bool {
    let tol = 2e-3 + 1e-3 * b.norm();
    (a - b).norm() < tol
}

#[test]
fn bootstrap_forces_match_the_reference_engine() {
    let (sys, md) = small_setup();
    let config = AntonConfig::new(md.clone());
    let anton = AntonMdEngine::new(sys.clone(), config, TorusDims::new(2, 2, 2));
    let mut reference = ReferenceEngine::new(sys, md);
    let want = reference.evaluate_forces();

    let got = anton.current_forces();
    assert_eq!(got.len(), want.forces.len());
    let mut worst = 0.0f64;
    for (g, w) in got.iter().zip(&want.forces) {
        worst = worst.max((*g - *w).norm());
        assert!(force_close(*g, *w), "anton {g:?} vs reference {w:?}");
    }
    // Energies match to grid/fixed-point tolerance.
    let e = anton.last_energies;
    assert!(
        (e.bonded - want.e_bonded).abs() < 1e-6 * want.e_bonded.abs().max(1.0),
        "bonded {} vs {}",
        e.bonded,
        want.e_bonded
    );
    assert!(
        (e.lj - want.e_lj).abs() < 1e-6 * want.e_lj.abs().max(1.0),
        "lj {} vs {}",
        e.lj,
        want.e_lj
    );
    assert!(
        (e.coulomb_real - want.e_coulomb_real).abs() < 1e-6 * want.e_coulomb_real.abs().max(1.0),
        "coulomb {} vs {}",
        e.coulomb_real,
        want.e_coulomb_real
    );
    assert!(
        (e.long_range - want.e_long_range).abs() < 1e-3 * want.e_long_range.abs().max(1.0),
        "long range {} vs {}",
        e.long_range,
        want.e_long_range
    );
}

#[test]
fn short_trajectories_track_the_reference() {
    let (sys, md) = small_setup();
    let config = AntonConfig::new(md.clone());
    let mut anton = AntonMdEngine::new(sys.clone(), config, TorusDims::new(2, 2, 2));
    let mut reference = ReferenceEngine::new(sys, md);

    for step in 0..6 {
        anton.step();
        reference.step();
        let asys = anton.system();
        // Positions agree within accumulated fixed-point noise.
        let mut worst = 0.0f64;
        for (a, r) in asys.atoms.iter().zip(&reference.sys.atoms) {
            let d = asys.pbox.min_image(r.pos, a.pos).norm();
            worst = worst.max(d);
        }
        assert!(
            worst < 2e-3 * (step as f64 + 1.0).powi(2) + 1e-4,
            "step {step}: worst position divergence {worst} Å"
        );
    }
    assert_eq!(anton.steps(), 6);
}

#[test]
fn thermostat_step_applies_the_same_rescaling() {
    let (sys, mut md) = small_setup();
    md.thermostat = Some(anton_md::Thermostat {
        target: 290.0,
        tau: 100.0,
        interval: 2,
    });
    let config = AntonConfig::new(md.clone());
    let mut anton = AntonMdEngine::new(sys.clone(), config, TorusDims::new(2, 2, 2));
    let mut reference = ReferenceEngine::new(sys, md);
    for _ in 0..4 {
        anton.step();
        reference.step();
    }
    let ta = anton.temperature();
    let tr = reference.temperature();
    assert!(
        (ta - tr).abs() < 0.02 * tr,
        "anton T={ta} vs reference T={tr}"
    );
}

#[test]
fn timing_structure_is_sane() {
    let (sys, md) = small_setup();
    let config = AntonConfig::new(md);
    let mut anton = AntonMdEngine::new(sys, config, TorusDims::new(2, 2, 2));
    let t1 = anton.step(); // step 1: range-limited only
    let t2 = anton.step(); // step 2: long-range (interval 2)
    assert!(!t1.long_range);
    assert!(t2.long_range);
    assert!(
        t2.total > t1.total,
        "long-range steps must be slower: {} vs {}",
        t1.total,
        t2.total
    );
    assert!(t2.fft_span > anton_des::SimDuration::ZERO);
    // Communication = total − compute is positive and less than total.
    for t in [&t1, &t2] {
        let comm = t.communication();
        assert!(comm > anton_des::SimDuration::ZERO);
        assert!(comm < t.total);
    }
}

#[test]
fn migration_keeps_physics_consistent() {
    let (sys, md) = small_setup();
    let mut config = AntonConfig::new(md.clone());
    config.migration_interval = 2;
    config.margin = 0.5;
    let mut anton = AntonMdEngine::new(sys.clone(), config, TorusDims::new(2, 2, 2));
    let mut reference = ReferenceEngine::new(sys, md);
    for _ in 0..4 {
        let t = anton.step();
        reference.step();
        let _ = t;
    }
    let asys = anton.system();
    let mut worst = 0.0f64;
    for (a, r) in asys.atoms.iter().zip(&reference.sys.atoms) {
        worst = worst.max(asys.pbox.min_image(r.pos, a.pos).norm());
    }
    assert!(worst < 0.05, "migration perturbed the physics: {worst} Å");
    // All atoms still owned consistently.
    let st = anton.state.lock().unwrap();
    let total: usize = st.local_atoms.iter().map(Vec::len).sum();
    assert_eq!(total, asys.atoms.len());
}

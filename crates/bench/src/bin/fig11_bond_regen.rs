//! Figure 11: evolution of time-step execution time over millions of MD
//! steps, with and without bond-program regeneration. The
//! multi-million-step horizon is reached with the Brownian diffusion
//! fast-forward (DESIGN.md substitution): between timing checkpoints,
//! molecules drift exactly as liquid-water self-diffusion predicts, the
//! static bond program goes stale, and its communication distances grow
//! — the Figure 11 mechanism.
//!
//! The regeneration arm reproduces the paper's pipeline: "Bond program
//! regeneration is performed in parallel with the MD simulation, so a
//! bond program is 120,000 time steps out of date when it is installed"
//! — each installed program is generated from positions 120 k steps
//! before the checkpoint.
//!
//! Because fast-forwarded molecules can land overlapping, velocities are
//! re-thermalized and stale forces cleared before each measured step;
//! this keeps the measured steps' *positions* (which determine the
//! communication pattern) at the diffused configuration.

use anton_core::{AntonConfig, AntonMdEngine};
use anton_des::Rng;
use anton_md::diffusion::{fast_forward, PROTEIN_DIFFUSION, WATER_DIFFUSION};
use anton_md::{MdParams, SystemBuilder, Vec3};
use anton_topo::TorusDims;

/// The paper's trajectory step (2.5 fs, constrained waters) sets the
/// drift-per-step of the x axis.
const PAPER_DT_FS: f64 = 2.5;
const REGEN_LAG_STEPS: u64 = 120_000;
/// Simulated horizon and the spacing of the timing checkpoints.
const TOTAL_STEPS: u64 = 8_000_000;
const CHECKPOINT_STEPS: u64 = 500_000;

fn main() {
    println!("Figure 11: step time vs simulated time, 23,558 atoms on 8x8x8");
    println!(
        "{:>12} {:>16} {:>10} | {:>16} {:>10}",
        "steps (k)", "no-regen (us)", "hops", "regen (us)", "hops"
    );

    let mut results: Vec<Vec<(u64, f64, f64)>> = Vec::new();
    for regen in [false, true] {
        let sys = SystemBuilder::dhfr_like().build();
        let mut md = MdParams::new(9.5, [32; 3]);
        md.dt = 1.0;
        let mut config = AntonConfig::new(md);
        config.migration_interval = 2;
        config.regen_interval = None; // regeneration is driven manually
        let mut eng = AntonMdEngine::new(sys, config, TorusDims::anton_512());

        let (groups, diffusion) = molecule_groups(&eng);
        let mut rng = Rng::seed_from(777);
        let mut therm_rng = Rng::seed_from(991);
        let mut series = Vec::new();
        let mut simulated: u64 = 0;
        loop {
            // Measure a few real steps (a migration runs first).
            let mut times = Vec::new();
            for _ in 0..4 {
                {
                    let mut st = eng.state.lock().unwrap();
                    st.sys.thermalize(300.0, &mut therm_rng);
                    let n = st.sys.atoms.len();
                    st.forces_prev = vec![Vec3::ZERO; n];
                }
                times.push(eng.step().total.as_us_f64());
            }
            let avg = times.iter().sum::<f64>() / times.len() as f64;
            let hops = eng.bond_staleness_hops();
            series.push((simulated / 1000, avg, hops));
            if simulated >= TOTAL_STEPS {
                break;
            }
            // Advance the trajectory horizon to the next checkpoint.
            if regen {
                advance(
                    &mut eng,
                    &groups,
                    &diffusion,
                    CHECKPOINT_STEPS - REGEN_LAG_STEPS,
                    &mut rng,
                );
                eng.state.lock().unwrap().regenerate_bond_program();
                advance(&mut eng, &groups, &diffusion, REGEN_LAG_STEPS, &mut rng);
            } else {
                advance(&mut eng, &groups, &diffusion, CHECKPOINT_STEPS, &mut rng);
            }
            simulated += CHECKPOINT_STEPS;
        }
        results.push(series);
    }

    let (no_regen, with_regen) = (&results[0], &results[1]);
    for (a, b) in no_regen.iter().zip(with_regen) {
        println!(
            "{:>12} {:>16.2} {:>10.2} | {:>16.2} {:>10.2}",
            a.0, a.1, a.2, b.1, b.2
        );
    }

    let fresh = no_regen[0].1;
    let tail = |v: &[(u64, f64, f64)]| -> f64 {
        let k = v.len().min(3);
        v[v.len() - k..].iter().map(|r| r.1).sum::<f64>() / k as f64
    };
    let stale_late = tail(no_regen);
    let regen_late = tail(with_regen);
    println!(
        "\nfresh step {fresh:.2} us; late no-regen {stale_late:.2} us; late with-regen {regen_late:.2} us"
    );
    println!(
        "regeneration improvement at late times: {:.0}% (paper: 14% overall)",
        (stale_late - regen_late) / stale_late * 100.0
    );
    assert!(stale_late > fresh * 1.04, "no-regen must degrade");
    assert!(regen_late < stale_late, "regeneration must help");
}

fn advance(
    eng: &mut AntonMdEngine,
    groups: &[Vec<usize>],
    diffusion: &[f64],
    steps: u64,
    rng: &mut Rng,
) {
    let mut st = eng.state.lock().unwrap();
    let mut positions: Vec<Vec3> = st.sys.atoms.iter().map(|a| a.pos).collect();
    let pbox = st.sys.pbox;
    fast_forward(
        &mut positions,
        groups,
        diffusion,
        &pbox,
        steps as f64 * PAPER_DT_FS,
        rng,
    );
    for (a, p) in st.sys.atoms.iter_mut().zip(&positions) {
        a.pos = *p;
    }
    st.step_count += steps;
}

/// Group atoms into rigid molecules (waters, chains) for the Brownian
/// fast-forward, with per-group diffusion constants.
fn molecule_groups(eng: &AntonMdEngine) -> (Vec<Vec<usize>>, Vec<f64>) {
    let st = eng.state.lock().unwrap();
    let n = st.sys.atoms.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut i = i;
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for b in &st.sys.bonds {
        let (ri, rj) = (find(&mut parent, b.i), find(&mut parent, b.j));
        if ri != rj {
            parent[ri] = rj;
        }
    }
    let mut groups_map: std::collections::HashMap<usize, Vec<usize>> = Default::default();
    for i in 0..n {
        let r = find(&mut parent, i);
        groups_map.entry(r).or_default().push(i);
    }
    let mut groups: Vec<Vec<usize>> = groups_map.into_values().collect();
    groups.sort_by_key(|g| g[0]);
    let diffusion = groups
        .iter()
        .map(|g| {
            if g.len() > 3 {
                PROTEIN_DIFFUSION
            } else {
                WATER_DIFFUSION
            }
        })
        .collect();
    (groups, diffusion)
}

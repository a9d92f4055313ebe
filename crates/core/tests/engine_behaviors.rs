//! Engine-level behaviors beyond physics equivalence: tracing, traffic
//! statistics, fixed packet counts, NVE operation, and the isolated FFT
//! measurement.

use anton_core::{AntonConfig, AntonMdEngine};
use anton_des::{SimTime, TrackId};
use anton_md::{MdParams, SystemBuilder};
use anton_topo::TorusDims;

fn small_engine() -> AntonMdEngine {
    let sys = SystemBuilder::tiny(240, 22.0, 555).build();
    let mut md = MdParams::new(4.5, [16; 3]);
    md.dt = 0.5;
    let config = AntonConfig::new(md);
    AntonMdEngine::new(sys, config, TorusDims::new(2, 2, 2))
}

#[test]
fn activity_trace_captures_all_unit_classes() {
    let mut eng = small_engine();
    eng.step(); // step 1: range-limited
    eng.trace_next_step();
    let t = eng.step(); // step 2: long-range, traced
    assert!(t.long_range);
    let tracer = eng.last_trace.as_ref().expect("trace captured");
    assert!(!tracer.intervals().is_empty());
    let end = SimTime::ZERO + t.total;
    // Links, Tensilica cores, geometry cores, and HTIS all show busy time.
    for track in [0u16, 6, 7, 8] {
        let busy = tracer.busy_time(TrackId(track), SimTime::ZERO, end);
        assert!(busy.as_ns_f64() > 0.0, "track {track} recorded no activity");
    }
    // The CSV renders.
    let csv = tracer.to_csv();
    assert!(csv.lines().count() > 100);
}

#[test]
fn step_traffic_is_identical_across_equal_steps() {
    // Fixed communication patterns (§IV.A): two range-limited steps in
    // the same epoch exchange exactly the same number of packets.
    let mut eng = small_engine();
    eng.step(); // 1: RL
    let s1 = eng.last_stats.clone().expect("stats");
    eng.step(); // 2: LR
    eng.step(); // 3: RL
    let s3 = eng.last_stats.clone().expect("stats");
    assert_eq!(s1.packets_sent, s3.packets_sent);
    assert_eq!(s1.packets_delivered, s3.packets_delivered);
    assert_eq!(s1.link_traversals, s3.link_traversals);
}

#[test]
fn nve_runs_without_thermostat() {
    let sys = SystemBuilder::tiny(150, 19.0, 556).build();
    let mut md = MdParams::nve(4.5, [16; 3]);
    md.long_range_interval = 2;
    let config = AntonConfig::new(md);
    let mut eng = AntonMdEngine::new(sys, config, TorusDims::new(2, 2, 2));
    for _ in 0..4 {
        let t = eng.step();
        assert!(!t.thermostat, "NVE steps run no global reduction");
        assert_eq!(t.reduce_span.as_ps(), 0);
    }
}

#[test]
fn isolated_fft_convolution_is_faster_than_a_long_range_step() {
    let mut eng = small_engine();
    eng.step();
    let lr = eng.step();
    assert!(lr.long_range);
    let fft = eng.measure_fft_convolution();
    assert!(fft > anton_des::SimDuration::ZERO);
    assert!(
        fft < lr.total,
        "isolated convolution {fft} must beat the full step {}",
        lr.total
    );
}

#[test]
fn regeneration_mid_run_preserves_physics() {
    let sys = SystemBuilder::tiny(240, 22.0, 557).build();
    let mut md = MdParams::new(4.5, [16; 3]);
    md.dt = 0.5;
    let config = AntonConfig::new(md.clone());
    let mut a = AntonMdEngine::new(sys.clone(), config, TorusDims::new(2, 2, 2));
    let config2 = AntonConfig::new(md);
    let mut b = AntonMdEngine::new(sys, config2, TorusDims::new(2, 2, 2));
    a.step();
    b.step();
    // Force a regeneration on engine `a` only.
    a.state.lock().unwrap().regenerate_bond_program();
    for _ in 0..3 {
        a.step();
        b.step();
    }
    // The bond program is an implementation detail: trajectories agree
    // bit-for-bit (same terms, same arithmetic, different placement).
    let (sa, sb) = (a.system(), b.system());
    for (x, y) in sa.atoms.iter().zip(&sb.atoms) {
        assert_eq!(x.pos.x.to_bits(), y.pos.x.to_bits());
        assert_eq!(x.vel.z.to_bits(), y.vel.z.to_bits());
    }
}

#[test]
fn per_node_packet_counts_are_balanced() {
    let mut eng = small_engine();
    eng.step();
    let stats = eng.last_stats.as_ref().expect("stats");
    let max = *stats.sent_by_node.iter().max().expect("nodes");
    let min = *stats.sent_by_node.iter().min().expect("nodes");
    // Homogeneous water box on a symmetric machine: sends within 3× of
    // each other (bond terms cluster a little).
    assert!(max <= 3 * min.max(1), "imbalanced sends: {min}..{max}");
}

#[test]
fn automatic_bond_program_regeneration_fires_on_schedule() {
    let sys = SystemBuilder::tiny(150, 19.0, 558).build();
    let mut md = MdParams::new(4.5, [16; 3]);
    md.dt = 0.5;
    let mut config = AntonConfig::new(md);
    config.regen_interval = Some(2);
    let mut eng = AntonMdEngine::new(sys, config, TorusDims::new(2, 2, 2));
    assert_eq!(eng.state.lock().unwrap().bond_program_age, 0);
    eng.step(); // k=1: 1-0 ≤ 2, no regen
    eng.step(); // k=2
    eng.step(); // k=3: 3-0 > 2 → regenerate
    let age = eng.state.lock().unwrap().bond_program_age;
    assert!(age >= 2, "regeneration should have fired, age={age}");
    // And the run keeps going cleanly afterwards.
    eng.step();
    assert_eq!(eng.steps(), 4);
}

//! Calibration probe: runs the DHFR-scale benchmark on the 512-node
//! machine and prints per-step timing plus a per-phase breakdown from
//! the activity trace. Used while tuning the cost model against Table 3.
use anton_core::{AntonConfig, AntonMdEngine};
use anton_md::{MdParams, SystemBuilder};
use anton_topo::TorusDims;

fn main() {
    let sys = SystemBuilder::dhfr_like().build();
    println!("system: {} atoms", sys.atoms.len());
    let mut md = MdParams::new(9.5, [32; 3]);
    md.dt = 1.0; // flexible water needs ~1 fs (the paper's system used constraints)
    let config = AntonConfig::new(md);
    let mut eng = AntonMdEngine::new(sys, config, TorusDims::anton_512());
    {
        let st = eng.state.lock().unwrap();
        println!(
            "capacity {} max_atoms {} htis_target {} force_target {}",
            st.plan.capacity,
            st.local_atoms.iter().map(Vec::len).max().unwrap(),
            st.plan.htis_pos_target[0],
            st.plan.force_target_rl[0],
        );
    }
    for i in 0..4 {
        eng.trace_next_step();
        let t = eng.step();
        println!(
            "step {}: total {} comm {} compute {} lr={} fft={} reduce={}",
            i + 1,
            t.total,
            t.communication(),
            t.critical_compute(),
            t.long_range,
            t.fft_span,
            t.reduce_span,
        );
        let s = eng.last_stats.as_ref().unwrap();
        println!(
            "  per-node sent ~{} recv ~{} traversals/link ~{}",
            s.packets_sent / 512,
            s.packets_delivered / 512,
            s.link_traversals / (512 * 6)
        );
        {
            let st = eng.state.lock().unwrap();
            println!(
                "  hpos fire {:?} us, force fire {:?} us",
                st.scratch
                    .ts_hpos
                    .map(|(a, b)| (a as f64 / 1e6, b as f64 / 1e6)),
                st.scratch
                    .ts_force
                    .map(|(a, b)| (a as f64 / 1e6, b as f64 / 1e6)),
            );
        }
        if let Some(tr) = &eng.last_trace {
            use std::collections::BTreeMap;
            let mut spans: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
            for iv in tr.intervals() {
                let label = tr.label(iv.label);
                let e = spans.entry(label).or_insert((u64::MAX, 0));
                e.0 = e.0.min(iv.start.as_ps());
                e.1 = e.1.max(iv.end.as_ps());
            }
            for (label, (a, b)) in spans {
                println!(
                    "    {:>22}: {:9.3} -> {:9.3} us",
                    label,
                    a as f64 / 1e6,
                    b as f64 / 1e6
                );
            }
        }
    }
}

//! Determinism cross-check for the parallel DES engine.
//!
//! Runs a fixed workload mix — an 8×8×8 dimension-ordered all-reduce,
//! an MD neighbor-exchange skeleton, and a flight-recorded token relay —
//! on the sharded parallel simulation with `ANTON_THREADS` workers and
//! the `ANTON_LOOKAHEAD` window-bound mode (read through
//! [`anton_bench::knobs`] into one `RunConfig`), and writes an FNV-1a
//! fingerprint of every observable (latencies, bitwise results, merged
//! statistics, and the merged flight-event trace) to
//! `target/obs/par_fingerprint.txt`.
//!
//! The file's content is a pure function of the *simulation*, never of
//! the thread count or the window mode: CI runs this binary under
//! `ANTON_THREADS=1`, `ANTON_THREADS=4`, and `ANTON_THREADS=4
//! ANTON_LOOKAHEAD=global` and fails on any byte of difference. The
//! stdout line names the mode the runs used, so CI can check the knob
//! reached them.

use anton_bench::knobs;
use anton_collectives::{all_reduce, random_inputs, Algorithm};
use anton_core::{md_exchange, MdExchangeParams};
use anton_des::SimTime;
use anton_net::{
    ClientAddr, ClientKind, CounterId, Ctx, Fabric, FaultPlan, NodeProgram, ObsMode, Packet,
    ParSimulation, Payload, ProgEvent, RunConfig,
};
use anton_obs::Fingerprint;
use anton_topo::{NodeId, TorusDims};

const C_TOK: CounterId = CounterId(7);

/// Token relay: every node forwards to the next id, three rounds.
struct Relay {
    left: u32,
}

impl Relay {
    fn arm_and_send(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let me = ClientAddr::new(node, ClientKind::Slice(0));
        ctx.watch_counter(me, C_TOK, 1);
        let next = NodeId((node.0 + 1) % ctx.dims().node_count());
        let pkt = Packet::write(
            me,
            ClientAddr::new(next, ClientKind::Slice(0)),
            0x1000,
            Payload::F64s(vec![node.0 as f64]),
        )
        .with_payload_bytes(8)
        .with_counter(C_TOK);
        ctx.send(pkt);
    }
}

impl NodeProgram for Relay {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => self.arm_and_send(node, ctx),
            ProgEvent::CounterReached { .. } => {
                let me = ClientAddr::new(node, ClientKind::Slice(0));
                let _ = ctx.mem_take(me, 0x1000);
                ctx.reset_counter(me, C_TOK);
                self.left -= 1;
                if self.left > 0 {
                    self.arm_and_send(node, ctx);
                }
            }
            _ => unreachable!(),
        }
    }
}

fn main() {
    let threads = knobs::THREADS.read();
    let lookahead = knobs::LOOKAHEAD.read();
    let cfg = RunConfig {
        lookahead,
        ..RunConfig::sharded(threads)
    };
    let mut fp = Fingerprint::new();

    // 1. All-reduce on the speedup-bench machine.
    let dims = TorusDims::new(8, 8, 8);
    let inputs = random_inputs(dims, 4, 42);
    let (out, _) = all_reduce(
        dims,
        Algorithm::DimensionOrdered,
        Default::default(),
        &inputs,
        FaultPlan::none(),
        &cfg,
    )
    .expect("fault-free all-reduce completes");
    fp.update(&out.latency);
    fp.update(&out.results);
    fp.update(&out.packets_sent);
    fp.update(&out.link_traversals);

    // 2. MD neighbor-exchange skeleton.
    let (md, _) = md_exchange(
        TorusDims::new(4, 4, 4),
        MdExchangeParams {
            steps: 5,
            ..Default::default()
        },
        &cfg,
    )
    .expect("exchange completes");
    fp.update(&md.makespan);
    fp.update(&md.checksums);
    fp.update(&md.stats);
    fp.update(&md.events);

    // 3. Flight-recorded relay: the merged trace itself is hashed.
    let rdims = TorusDims::new(4, 4, 4);
    let mut sim = ParSimulation::from_config(
        &RunConfig {
            obs: ObsMode::Flight,
            ..cfg
        },
        |timing| Fabric::with_faults(rdims, timing.clone(), FaultPlan::none()),
        |_| Relay { left: 3 },
    );
    assert!(sim
        .run_guarded(SimTime(u64::MAX / 2), 10_000_000)
        .is_completed());
    fp.update(&sim.now());
    fp.update(&sim.merged_stats());
    for ev in sim.take_merged_flight_events() {
        fp.update(&ev);
    }

    let hex = fp.hex();
    std::fs::create_dir_all("target/obs").expect("create target/obs");
    // No thread count or window mode in the file: its bytes must be
    // identical at every ANTON_THREADS and ANTON_LOOKAHEAD setting.
    let content = format!(
        "workloads: allreduce-8x8x8-dimord, md-exchange-4x4x4, relay-4x4x4-recorded\n\
         fingerprint: {hex}\n"
    );
    std::fs::write("target/obs/par_fingerprint.txt", &content)
        .expect("write target/obs/par_fingerprint.txt");
    println!("par_determinism: threads={threads} lookahead={lookahead} fingerprint={hex}");
}

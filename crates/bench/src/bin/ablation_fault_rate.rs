//! Robustness ablation: sweep the link fault rate and measure how
//! gracefully the machine degrades. Anton's network is lossless to
//! software because a link-level CRC + retransmission protocol hides
//! transient faults; this experiment prices that protocol. Each rate r
//! injects drops at r and corruptions at r/2 per link traversal
//! (deterministic in the seed), with the default retransmit budget of 8.
//!
//! Three workloads, each against its fault-free baseline:
//! - ping-pong one-way latency (the paper's 162 ns headline),
//! - a 32-byte dimension-ordered all-reduce on 512 nodes (Table 2),
//! - one full DHFR-like MD time step on a 4x4x4 machine.

use anton_bench::ping_pong;
use anton_collectives::{all_reduce, random_inputs, Algorithm};
use anton_core::{AntonConfig, AntonMdEngine};
use anton_md::{MdParams, SystemBuilder};
use anton_net::{FaultPlan, RunConfig};
use anton_topo::{Coord, TorusDims};

const SEED: u64 = 2010;

fn plan(rate: f64) -> FaultPlan {
    FaultPlan::seeded(SEED)
        .with_drop_rate(rate)
        .with_corrupt_rate(rate / 2.0)
}

fn main() {
    let rates = [0.0f64, 1e-4, 1e-3, 1e-2, 5e-2, 0.1];
    println!("Fault-rate ablation (drop rate r, corrupt rate r/2, retry budget 8)");
    println!(
        "{:>8} {:>12} {:>8} {:>13} {:>8} {:>13} {:>8} {:>12}",
        "rate",
        "pingpong ns",
        "vs base",
        "allreduce us",
        "vs base",
        "md step us",
        "vs base",
        "retransmits"
    );

    let dims512 = TorusDims::anton_512();
    let ar_inputs = random_inputs(dims512, 4, 7);
    let md_dims = TorusDims::new(4, 4, 4);

    let mut base: Option<(f64, f64, f64)> = None;
    let mut prev_ping = 0.0;
    for rate in rates {
        let ping = ping_pong(
            dims512,
            Coord::new(0, 0, 0),
            Coord::new(1, 0, 0),
            0,
            false,
            32,
            plan(rate),
            &RunConfig::default(),
        )
        .ok()
        .map(|(latency, _)| latency);
        let ar = all_reduce(
            dims512,
            Algorithm::DimensionOrdered,
            Default::default(),
            &ar_inputs,
            plan(rate),
            &RunConfig::default(),
        )
        .ok()
        .map(|(out, _)| out);

        let sys = SystemBuilder::dhfr_like().build();
        let mut md = MdParams::new(9.5, [32; 3]);
        md.dt = 1.0;
        let mut config = AntonConfig::new(md);
        config.fault = plan(rate);
        let mut eng = AntonMdEngine::new(sys, config, md_dims);
        // `stats_total` is cumulative over every DES run (the bootstrap
        // force evaluation included); diff against a snapshot so the
        // reported retransmits cover exactly the swept step.
        let after_bootstrap = eng.stats_total.clone();
        let (md_us, retransmits) = match eng.try_step() {
            Ok(t) => {
                let step_stats = eng.stats_total.diff(&after_bootstrap);
                (Some(t.total.as_us_f64()), step_stats.retransmits)
            }
            Err(stall) => {
                println!("  MD step stalled at rate {rate}:\n{stall}");
                (None, 0)
            }
        };

        let ping_ns = ping.map(|d| d.as_ns_f64());
        let ar_us = ar.as_ref().map(|o| o.latency.as_us_f64());
        if base.is_none() {
            base = Some((
                ping_ns.expect("fault-free ping-pong completes"),
                ar_us.expect("fault-free all-reduce completes"),
                md_us.expect("fault-free MD step completes"),
            ));
        }
        let (b_ping, b_ar, b_md) = base.unwrap();
        let fmt = |v: Option<f64>| {
            v.map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "stall".into())
        };
        let ratio = |v: Option<f64>, b: f64| {
            v.map(|x| format!("{:.3}x", x / b))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:>8} {:>12} {:>8} {:>13} {:>8} {:>13} {:>8} {:>12}",
            format!("{rate}"),
            fmt(ping_ns),
            ratio(ping_ns, b_ping),
            fmt(ar_us),
            ratio(ar_us, b_ar),
            fmt(md_us),
            ratio(md_us, b_md),
            retransmits,
        );

        // Degradation must be smooth: each workload completes at every
        // swept rate and latency never improves as faults increase.
        let p = ping_ns.expect("ping-pong completes at every swept rate");
        assert!(p + 1e-9 >= prev_ping, "latency must degrade monotonically");
        prev_ping = p;
        assert!(ar_us.is_some(), "all-reduce completes at every swept rate");
        assert!(md_us.is_some(), "MD step completes at every swept rate");
    }
    let (b_ping, _, _) = base.unwrap();
    assert!(
        (b_ping - 162.0).abs() < 1.0,
        "fault-free baseline must reproduce the 162 ns headline"
    );
    println!(
        "\nthe reliability sublayer degrades smoothly: at 10% drops the machine\n\
         still completes every workload, paying only retransmission latency —\n\
         the paper's losslessness guarantee priced under deliberate abuse."
    );
}

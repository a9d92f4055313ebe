//! What-if re-timing: replay a [`CausalGraph`] with perturbed edge
//! lags to predict end-to-end impact without re-running the simulation.
//!
//! The replay is a single forward pass in topological (= stream) order:
//! source nodes keep their recorded times, every other node becomes
//! `max(pred_new + scaled_lag)` over its in-edges. Because the graph
//! satisfies the exactness invariant (`max(pred + lag) == time`), the
//! identity perturbation reproduces every recorded time *bit-for-bit*
//! — the property tests pin this.
//!
//! # Caveats
//!
//! The re-timer predicts how the recorded dependency structure
//! stretches; it does not re-run arbitration. A perturbation big
//! enough to change *decisions* (packet A now beats packet B to a
//! port, a program sends in a different order) changes the graph
//! itself, and the prediction degrades gracefully rather than
//! tracking it. For the uniform latency scalings it is meant for
//! (hop latency ±10%, one slow link) the acceptance tests cross-check
//! predictions against actual perturbed re-runs to within 1%.

use crate::causal::{Blame, CausalGraph, EdgeKind, NodeKind};
use anton_des::{SimDuration, SimTime};
use anton_topo::{LinkDir, NodeId};

/// A what-if scenario: per-[`EdgeKind`] lag scale factors plus
/// per-link slowdowns applied to that link's [`EdgeKind::Wire`] edges.
/// The default is the identity (every factor 1.0).
#[derive(Debug, Clone)]
pub struct Perturbation {
    kind_scale: [f64; EdgeKind::COUNT],
    link_scale: Vec<(u32, u8, f64)>,
}

impl Default for Perturbation {
    fn default() -> Self {
        Perturbation {
            kind_scale: [1.0; EdgeKind::COUNT],
            link_scale: Vec::new(),
        }
    }
}

impl Perturbation {
    /// The identity perturbation.
    pub fn none() -> Perturbation {
        Perturbation::default()
    }

    /// Scale every lag of one [`EdgeKind`] by `factor`. Scaling
    /// [`EdgeKind::Wire`] by 1.1 models "every hop 10% slower";
    /// scaling [`EdgeKind::LinkWait`] models a bandwidth change.
    pub fn scale(mut self, kind: EdgeKind, factor: f64) -> Perturbation {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and >= 0"
        );
        self.kind_scale[kind.index()] *= factor;
        self
    }

    /// Slow down (or speed up) one physical link direction: scales the
    /// [`EdgeKind::Wire`] lag of traversals leaving `node` on `link`.
    pub fn slow_link(mut self, node: NodeId, link: LinkDir, factor: f64) -> Perturbation {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and >= 0"
        );
        self.link_scale.push((node.0, link.index() as u8, factor));
        self
    }

    /// The combined factor for one edge of the graph.
    fn factor(&self, g: &CausalGraph, edge_idx: u32) -> f64 {
        let edge = &g.edges()[edge_idx as usize];
        let mut f = self.kind_scale[edge.kind.index()];
        if edge.kind == EdgeKind::Wire {
            let src = &g.nodes()[edge.src as usize];
            if src.kind == NodeKind::LinkStart {
                for &(node, link, lf) in &self.link_scale {
                    if node == src.node.0 && link == src.aux {
                        f *= lf;
                    }
                }
            }
        }
        f
    }
}

/// The result of replaying a graph under a [`Perturbation`].
#[derive(Debug, Clone)]
pub struct Retimed {
    /// Predicted time per node (parallel to `CausalGraph::nodes`).
    pub times: Vec<SimTime>,
    /// The node predicted to finish last (`None` on an empty graph).
    pub terminal: Option<u32>,
    /// The predicted makespan end (time of `terminal`).
    pub end: SimTime,
}

impl Retimed {
    /// Predicted change of the makespan end versus the recorded one,
    /// in picoseconds (negative = faster).
    pub fn delta_ps(&self, g: &CausalGraph) -> i64 {
        let recorded = g
            .terminal()
            .map(|t| g.nodes()[t as usize].time.as_ps())
            .unwrap_or(0);
        self.end.as_ps() as i64 - recorded as i64
    }
}

/// Replay `g` with `p`'s lag scalings. Identity factors take an exact
/// integer path (no float round-trip), so a zero perturbation
/// reproduces the recorded times bit-for-bit.
pub fn retime(g: &CausalGraph, p: &Perturbation) -> Retimed {
    let n = g.len();
    let mut times: Vec<SimTime> = Vec::with_capacity(n);
    for i in 0..n as u32 {
        let mut t = if g.is_source(i) {
            g.nodes()[i as usize].time
        } else {
            SimTime::ZERO
        };
        for (ei, e) in g.preds(i) {
            let f = p.factor(g, ei);
            let lag = if f == 1.0 {
                e.lag
            } else {
                SimDuration::from_ps((e.lag.as_ps() as f64 * f).round() as u64)
            };
            t = t.max(times[e.src as usize] + lag);
        }
        times.push(t);
    }
    let mut terminal: Option<u32> = None;
    for (i, &t) in times.iter().enumerate() {
        match terminal {
            Some(b) if times[b as usize] >= t => {}
            _ => terminal = Some(i as u32),
        }
    }
    let end = terminal.map(|t| times[t as usize]).unwrap_or(SimTime::ZERO);
    Retimed {
        times,
        terminal,
        end,
    }
}

/// [`retime`] plus the perturbed critical-path blame: after the
/// forward pass, walk the binding-edge chain back from the predicted
/// terminal (highest perturbed reach, ties toward the earliest
/// inserted edge — the same tie-break as
/// [`CausalGraph::critical_path`]) and sum the *scaled* lags into
/// per-[`EdgeKind`] buckets. The returned blame totals the predicted
/// critical span, so diffing it against the unperturbed
/// [`Blame`] shows where the critical path
/// *moved* — not just how much the makespan stretched. With the
/// identity perturbation the blame equals
/// `Blame::from_path(g, &g.critical_path())` exactly.
pub fn retime_blamed(g: &CausalGraph, p: &Perturbation) -> (Retimed, Blame) {
    let rt = retime(g, p);
    let mut blame = Blame::default();
    if let Some(terminal) = rt.terminal {
        let scaled = |ei: u32, e: &crate::causal::CEdge| {
            let f = p.factor(g, ei);
            if f == 1.0 {
                e.lag
            } else {
                SimDuration::from_ps((e.lag.as_ps() as f64 * f).round() as u64)
            }
        };
        let mut cur = terminal;
        loop {
            let mut best: Option<(u32, u32, SimTime, SimDuration)> = None;
            for (ei, e) in g.preds(cur) {
                let lag = scaled(ei, e);
                let reach = rt.times[e.src as usize] + lag;
                let better = match best {
                    None => true,
                    Some((bei, _, bt, _)) => reach > bt || (reach == bt && ei < bei),
                };
                if better {
                    best = Some((ei, e.src, reach, lag));
                }
            }
            match best {
                None => break,
                Some((ei, src, _, lag)) => {
                    blame.add(g.edges()[ei as usize].kind, lag);
                    cur = src;
                }
            }
        }
    }
    (rt, blame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::tests::one_hop_events;
    use anton_topo::TorusDims;

    fn ns(v: u64) -> SimTime {
        SimTime::from_ns(v)
    }

    fn one_hop_graph() -> CausalGraph {
        CausalGraph::build(TorusDims::new(4, 4, 4), &one_hop_events(), |_| {
            SimDuration::from_ns(2)
        })
    }

    #[test]
    fn identity_reproduces_recorded_times_bit_for_bit() {
        let g = one_hop_graph();
        let rt = retime(&g, &Perturbation::none());
        for (i, n) in g.nodes().iter().enumerate() {
            assert_eq!(rt.times[i], n.time);
        }
        assert_eq!(rt.delta_ps(&g), 0);
    }

    #[test]
    fn identity_blame_matches_the_recorded_critical_path() {
        let g = one_hop_graph();
        let path = g.critical_path().expect("has a path");
        let recorded = Blame::from_path(&g, &path);
        let (rt, blamed) = retime_blamed(&g, &Perturbation::none());
        assert_eq!(rt.end, path.end);
        for kind in EdgeKind::ALL {
            assert_eq!(blamed.get(kind), recorded.get(kind), "{kind:?}");
        }
    }

    #[test]
    fn slow_link_blame_shifts_toward_wire() {
        let g = one_hop_graph();
        let (_, base) = retime_blamed(&g, &Perturbation::none());
        let (rt, slow) = retime_blamed(
            &g,
            &Perturbation::none().slow_link(NodeId(0), LinkDir::from_index(0), 3.0),
        );
        // The 40 ns wire lag tripled: +80 ns end to end, all of it wire.
        assert_eq!(rt.end, ns(242));
        assert_eq!(
            slow.get(EdgeKind::Wire),
            base.get(EdgeKind::Wire) + SimDuration::from_ns(80)
        );
        let base_shares = base.shares_pct();
        let slow_shares = slow.shares_pct();
        assert!(slow_shares["wire"] > base_shares["wire"]);
        // Shares still sum to ~100.
        let sum: f64 = slow_shares.values().sum();
        assert!((sum - 100.0).abs() < 1e-9, "{sum}");
    }

    #[test]
    fn wire_scaling_shifts_only_the_hop() {
        let g = one_hop_graph();
        // The single 40 ns wire lag grows 10% -> the end moves +4 ns.
        let rt = retime(&g, &Perturbation::none().scale(EdgeKind::Wire, 1.1));
        assert_eq!(rt.end, SimTime::from_ps(ns(166).as_ps()));
        // Slowing an unrelated link changes nothing.
        let rt = retime(
            &g,
            &Perturbation::none().slow_link(NodeId(9), LinkDir::from_index(2), 4.0),
        );
        assert_eq!(rt.end, ns(162));
        // Slowing the traversed link doubles its 40 ns wire lag.
        let rt = retime(
            &g,
            &Perturbation::none().slow_link(NodeId(0), LinkDir::from_index(0), 2.0),
        );
        assert_eq!(rt.end, ns(202));
    }
}

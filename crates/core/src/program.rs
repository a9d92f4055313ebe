//! The per-node MD program: Anton's time-step dataflow (Figure 2) as an
//! event-driven state machine over counted remote writes.
//!
//! One DES run simulates one time step; the engine (`crate::engine`)
//! carries positions, velocities, and force caches between steps. Within
//! a step, every dynamic value crosses nodes only inside packets; the
//! shared [`MachineState`] supplies static program data (plans, counts,
//! topology) and per-node working storage.

use crate::fftplan;
use crate::state::{lock, MachineState};
use anton_des::{SimDuration, TrackId};
use anton_fft::{Complex, Direction, Fft1d, Layout};
use anton_md::grid::{ScalarGrid, SpreadParams};
use anton_md::pair::{erf, pair_interaction};
use anton_md::units::{kinetic_energy, COULOMB};
use anton_md::{fixed, Vec3};
use anton_net::{
    ClientAddr, ClientKind, CounterId, Ctx, NodeProgram, Packet, PacketKind, Payload, ProgEvent,
};
use anton_topo::{hop_count, Coord, Dim, NodeId};
use std::sync::{Arc, Mutex};

// ---- trace tracks (0–5 are the torus link directions, in anton-net) ----
/// Tensilica cores.
pub const TRACK_TS: TrackId = TrackId(6);
/// Geometry cores.
pub const TRACK_GC: TrackId = TrackId(7);
/// HTIS units.
pub const TRACK_HTIS: TrackId = TrackId(8);

// ---- synchronization counters ----
const C_POT: CounterId = CounterId(1); // HTIS: potential rows
const C_FORCE: CounterId = CounterId(0); // Accum 0: force packets
const C_CHARGE: CounterId = CounterId(0); // Accum 1: charge rows
const C_BPOS: CounterId = CounterId(0); // slice: bonded positions
fn c_fft(stage: usize) -> CounterId {
    CounterId(2 + stage as u16) // slices: FFT gather stages 0..=4
}
const C_BRICKPOT: CounterId = CounterId(9); // slice 0: potential scatter
const C_MIGSYNC: CounterId = CounterId(10); // slice 0: migration sync
fn c_ar(round: usize) -> CounterId {
    CounterId(12 + round as u16) // slice r: thermostat reduce rounds
}

// ---- receive-side memory map (pre-allocated buffers, §IV.A) ----
const A_POS: u64 = 0x0100_0000; // HTIS: + atom id
const A_BPOS: u64 = 0x0200_0000; // slice: + atom id
const A_FFT: u64 = 0x0300_0000; // slice: + stage·2²⁰ + grid point index
const A_POTROW: u64 = 0x0400_0000; // HTIS: + src node·64 + row
const A_AR: u64 = 0x0500_0000; // slice: + round·2¹² + coord·8
const A_LR: u64 = 0x0010_0000; // accum 0: long-range region offset
const FFT_STRIDE: u64 = 0x0010_0000;

// ---- timer tags ----
const TAG_INTEG1: u64 = 1;
const TAG_MIG_DONE: u64 = 2;
const TAG_HTIS_DONE: u64 = 3;
const TAG_BOND_DONE: u64 = 4; // +slice (4..=7)
const TAG_SPREAD_DONE: u64 = 8;
const TAG_CHARGE_READ: u64 = 9;
const TAG_FFT_DONE: u64 = 16; // +stage*4+slice (16..=35)
const TAG_POTCAST: u64 = 40;
const TAG_INTERP_DONE: u64 = 41;
const TAG_ACCUM_READ: u64 = 42;
const TAG_INTEG2: u64 = 43; // +slice (43..=46)
const TAG_AR: u64 = 50; // +round

fn slice(node: NodeId, s: u8) -> ClientAddr {
    ClientAddr::new(node, ClientKind::Slice(s))
}
fn htis(node: NodeId) -> ClientAddr {
    ClientAddr::new(node, ClientKind::Htis)
}
fn accum0(node: NodeId) -> ClientAddr {
    ClientAddr::new(node, ClientKind::Accum(0))
}
fn accum1(node: NodeId) -> ClientAddr {
    ClientAddr::new(node, ClientKind::Accum(1))
}

/// Incremental HTIS scheduling state: buffers (one per source box)
/// complete independently; a box pair becomes computable when both of
/// its buffers are complete, and the HTIS pipelines process ready pairs
/// one at a time — computation starts while other positions are still in
/// flight (§IV.A: "Certain computations start as soon as the first
/// message has arrived, while other messages are still in flight").
struct HtisState {
    sources: Vec<Coord>,
    ready: Vec<bool>,
    imported: Vec<Vec<(u32, Vec3)>>,
    task_pairs: Vec<(usize, usize)>,
    pending: Vec<usize>,
    /// Per source: remaining pairs before its force results are final.
    remaining: Vec<u32>,
    /// Per source: force-return hop distance (priority-queue key).
    return_hops: Vec<u32>,
    rl: Vec<Vec<Vec3>>,
    lr: Vec<Vec<Vec3>>,
    sent: Vec<bool>,
    busy: bool,
    current_pair: usize,
}

/// The per-node program. Most state lives in the shared
/// [`MachineState`]; the struct itself only keeps tiny per-node cursors.
///
/// Every node reads and writes the one shared state, so an `MdNode`
/// machine must run on one slab ([`anton_net::Slabs::ONE`]): there its
/// handlers run one at a time on one thread, and the lock is never
/// contended.
pub struct MdNode {
    /// The shared machine state.
    pub state: Arc<Mutex<MachineState>>,
    /// Set when this node finished its part of the step.
    done: bool,
    /// All-reduce working values during the thermostat/barostat
    /// reduction: kinetic energy and virial.
    ar_value: f64,
    ar_virial: f64,
    ar_round: usize,
    htis: Option<HtisState>,
    /// When the HTIS went idle waiting for buffers (stall tracking for
    /// Figure 13's light-gray regions).
    htis_idle_since: Option<anton_des::SimTime>,
    /// When the slices went idle waiting for forces.
    ts_idle_since: Option<anton_des::SimTime>,
}

impl MdNode {
    /// A fresh per-node program sharing `state`.
    pub fn new(state: Arc<Mutex<MachineState>>) -> MdNode {
        MdNode {
            state,
            done: false,
            ar_value: 0.0,
            ar_virial: 0.0,
            ar_round: 0,
            htis: None,
            htis_idle_since: None,
            ts_idle_since: None,
        }
    }

    fn mark_done(&mut self) {
        debug_assert!(!self.done, "node completed twice");
        self.done = true;
        lock(&self.state).scratch.nodes_done += 1;
    }

    fn add_compute(&self, node: NodeId, d: SimDuration) {
        lock(&self.state).compute_time[node.index()] += d;
    }

    // ---------------- step start ----------------

    fn on_start(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        if lock(&self.state).scratch.fft_only {
            self.start_fft_only(node, ctx);
            return;
        }
        let st = lock(&self.state);
        let dims = st.decomp.dims;
        let lr = st.scratch.long_range;
        let bootstrap = st.scratch.bootstrap;
        let migration = st.scratch.migration;
        let n_atoms = st.node_atoms(node).len();
        let plan = &st.plan;

        // Arm every receive counter of the step up front (buffers are
        // pre-allocated; targets are the plan's fixed counts). HTIS
        // position buffers use one counter per source box, resolved from
        // the packet's source node by the buffer table.
        let me = node.coord(dims);
        let sources = st.decomp.source_boxes(me);
        assert!(
            16 + sources.len() <= 62,
            "too many HTIS buffers for counters"
        );
        let capacity = plan.capacity as u64;
        let mut buffer_map = std::collections::HashMap::new();
        for (i, &src) in sources.iter().enumerate() {
            buffer_map.insert(src.node_id(dims), CounterId(16 + i as u16));
        }
        let task_pairs: Vec<(usize, usize)> = st
            .decomp
            .task_pairs(me)
            .into_iter()
            .map(|(a, b)| {
                let ia = sources.iter().position(|&s| s == a).expect("imported");
                let ib = sources.iter().position(|&s| s == b).expect("imported");
                (ia.min(ib), ia.max(ib))
            })
            .collect();
        let mut remaining = vec![0u32; sources.len()];
        for &(a, b) in &task_pairs {
            remaining[a] += 1;
            if b != a {
                remaining[b] += 1;
            }
        }
        let return_hops: Vec<u32> = sources.iter().map(|&s| hop_count(me, s, dims)).collect();
        self.htis = Some(HtisState {
            ready: vec![false; sources.len()],
            imported: vec![Vec::new(); sources.len()],
            pending: Vec::new(),
            remaining,
            return_hops,
            rl: vec![Vec::new(); sources.len()],
            lr: vec![Vec::new(); sources.len()],
            sent: vec![false; sources.len()],
            busy: false,
            current_pair: usize::MAX,
            sources,
            task_pairs,
        });
        for s in 0..4u8 {
            ctx.watch_counter(
                slice(node, s),
                C_BPOS,
                plan.bond_pos_target[node.index()][s as usize],
            );
        }
        let force_target = plan.force_target_rl[node.index()]
            + if lr {
                plan.force_target_lr_extra[node.index()]
            } else {
                0
            };
        ctx.watch_counter(accum0(node), C_FORCE, force_target);
        if lr {
            let map = &st.grid_map;
            ctx.watch_counter(
                accum1(node),
                C_CHARGE,
                fftplan::charge_targets(map, st.spread_reach_points)[node.index()],
            );
            for (stage, dim) in [Dim::X, Dim::Y, Dim::Z, Dim::Y, Dim::X].iter().enumerate() {
                let targets = fftplan::pencil_targets(map, *dim);
                for s in 0..4u8 {
                    ctx.watch_counter(
                        slice(node, s),
                        c_fft(stage),
                        targets[node.index()][s as usize],
                    );
                }
            }
            let brick = map.brick();
            ctx.watch_counter(
                slice(node, 0),
                C_BRICKPOT,
                (brick[0] * brick[1] * brick[2]) as u64,
            );
            ctx.watch_counter(
                htis(node),
                C_POT,
                fftplan::potential_targets(map)[node.index()],
            );
        }
        if migration {
            let neighbors = anton_topo::moore_neighbors(node.coord(dims), dims);
            ctx.watch_counter(slice(node, 0), C_MIGSYNC, neighbors.len() as u64);
        }
        drop(st);
        ctx.set_source_counter_map(htis(node), buffer_map);
        {
            let h = self.htis.as_ref().expect("just built");
            for i in 0..h.sources.len() {
                ctx.watch_counter(htis(node), CounterId(16 + i as u16), capacity);
            }
        }

        if bootstrap {
            self.distribute(node, ctx);
        } else {
            // First-half integration (math already applied host-side;
            // model the arithmetic time on all four slices).
            let st = lock(&self.state);
            let cost = &st.config.cost;
            let share = n_atoms.div_ceil(4) as u64;
            let d = cost.integrate(share);
            drop(st);
            ctx.set_phase("integration");
            for s in 0..4u8 {
                let tag = if s == 0 { TAG_INTEG1 } else { u64::MAX };
                if s == 0 {
                    ctx.compute(node, ClientKind::Slice(s), TRACK_TS, d, tag, "integrate");
                } else {
                    // Busy interval only; no follow-up event needed.
                    ctx.compute(
                        node,
                        ClientKind::Slice(s),
                        TRACK_TS,
                        d,
                        u64::MAX,
                        "integrate",
                    );
                }
            }
            self.add_compute(node, d);
        }
    }

    // ---------------- migration ----------------

    fn start_migration(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        ctx.set_phase("migration");
        let st = lock(&self.state);
        let leavers = st.scratch.leavers[node.index()].clone();
        drop(st);
        for (atom, new_owner) in &leavers {
            let st = lock(&self.state);
            let a = &st.sys.atoms[*atom as usize];
            let payload = Payload::F64s(vec![a.pos.x, a.pos.y, a.pos.z, a.vel.x, a.vel.y, a.vel.z]);
            drop(st);
            let pkt = Packet::fifo(slice(node, 0), slice(*new_owner, 0), payload)
                .with_tag(*atom as u64)
                .with_in_order();
            ctx.send(pkt);
        }
        // In-order sync multicast to all Moore neighbors (§IV.B.5): it
        // cannot overtake the migration messages.
        let dims_coord = node.coord(ctx.dims());
        let pkt = Packet {
            uid: 0,
            src: slice(node, 0),
            dest: anton_net::Destination::Multicast {
                pattern: lock(&self.state).patterns.mig_id(dims_coord),
                client: ClientKind::Slice(0),
            },
            kind: PacketKind::Write,
            addr: 0xE000,
            payload_bytes: 0,
            crc: anton_net::payload_crc(&Payload::Empty),
            payload: Payload::Empty,
            counter: Some(C_MIGSYNC),
            in_order: true,
            tag: 0,
            route: None,
            order_seq: None,
            reinjects: 0,
            trail: None,
        };
        ctx.send(pkt);
    }

    fn migration_synced(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let mut st = lock(&self.state);
        st.scratch.migration_last_sync = Some(
            st.scratch
                .migration_last_sync
                .unwrap_or(0)
                .max(ctx.now().as_ps()),
        );
        let received = st.scratch.mig_received[node.index()] as u64;
        let d = st.config.cost.migrate(received);
        drop(st);
        self.add_compute(node, d);
        ctx.compute(
            node,
            ClientKind::Slice(0),
            TRACK_TS,
            d,
            TAG_MIG_DONE,
            "migration",
        );
    }

    // ---------------- position distribution ----------------

    fn distribute(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        ctx.set_phase("position send");
        let st = lock(&self.state);
        let decomp = &st.decomp;
        let me = node.coord(decomp.dims);
        let pos_pattern = st.patterns.pos_id(me);
        let atoms = st.node_atoms(node).to_vec();
        let capacity = st.plan.capacity;
        let bond_sends = st.plan.bond_sends_by_node[node.index()].clone();
        let lr = st.scratch.long_range;
        let positions: Vec<(u32, Vec3)> = atoms
            .iter()
            .map(|&a| (a, st.sys.atoms[a as usize].pos))
            .collect();
        drop(st);

        // NT multicast, one atom per packet, 28 B (3×f64 + id), sent by
        // the slice owning the atom's slot.
        for (slot, &(atom, p)) in positions.iter().enumerate() {
            let s = (slot % 4) as u8;
            let pkt = Packet::write(
                slice(node, s),
                htis(node), // replaced by the multicast destination
                A_POS + atom as u64,
                Payload::F64s(vec![p.x, p.y, p.z]),
            )
            .with_payload_bytes(28)
            .with_counter(anton_net::COUNTER_BY_SOURCE)
            .with_tag(atom as u64)
            .into_multicast(pos_pattern, ClientKind::Htis);
            ctx.send(pkt);
        }
        // Padding to the fixed per-source packet count (§IV.B.1:
        // worst-case atom-density headroom).
        for pad in positions.len() as u32..capacity {
            let pkt = Packet::write(
                slice(node, (pad % 4) as u8),
                htis(node),
                A_POS - 1, // scratch cell, overwritten freely
                Payload::Empty,
            )
            .with_payload_bytes(28)
            .with_counter(anton_net::COUNTER_BY_SOURCE)
            .with_tag(u64::MAX)
            .into_multicast(pos_pattern, ClientKind::Htis);
            ctx.send(pkt);
        }
        // Bonded unicasts: one atom per packet (§IV.B.2), including
        // node-local deliveries so receiver counts stay fixed.
        for (atom, dest, dslice) in bond_sends {
            let st = lock(&self.state);
            let p = st.sys.atoms[atom as usize].pos;
            let slot = st.slots[atom as usize] as usize;
            drop(st);
            let pkt = Packet::write(
                slice(node, (slot % 4) as u8),
                slice(dest.node_id(ctx.dims()), dslice),
                A_BPOS + atom as u64,
                Payload::F64s(vec![p.x, p.y, p.z]),
            )
            .with_payload_bytes(28)
            .with_counter(C_BPOS)
            .with_tag(atom as u64);
            ctx.send(pkt);
        }
        if lr {
            self.start_spread(node, ctx);
        }
        // The slices now wait for force accumulation (modulo bonded and
        // FFT work that arrives in between).
        self.ts_idle_since = Some(ctx.now());
    }

    // ---------------- range-limited interactions (HTIS) ----------------

    /// A source buffer completed: record its positions and schedule any
    /// box pairs that just became computable.
    fn htis_buffer_ready(&mut self, node: NodeId, idx: usize, ctx: &mut Ctx<'_, '_>) {
        {
            let mut st = lock(&self.state);
            let t = ctx.now().as_ps();
            st.scratch.ts_hpos = Some(match st.scratch.ts_hpos {
                None => (t, t),
                Some((a, b)) => (a.min(t), b.max(t)),
            });
        }
        let st = lock(&self.state);
        let dims = st.decomp.dims;
        let h = self.htis.as_mut().expect("HTIS state built at start");
        debug_assert!(!h.ready[idx]);
        h.ready[idx] = true;
        // Read the buffer's positions out of HTIS local memory.
        let src = h.sources[idx];
        let list = st.node_atoms(src.node_id(dims));
        let mut entries = Vec::with_capacity(list.len());
        for &atom in list {
            match ctx.mem_read(htis(node), A_POS + atom as u64) {
                Some(Payload::F64s(v)) if v.len() == 3 => {
                    entries.push((atom, Vec3::new(v[0], v[1], v[2])));
                }
                other => panic!(
                    "node {} missing imported position for atom {atom}: {other:?}",
                    node.0
                ),
            }
        }
        h.imported[idx] = entries;
        h.rl[idx] = vec![Vec3::ZERO; list.len()];
        if st.scratch.long_range {
            h.lr[idx] = vec![Vec3::ZERO; list.len()];
        }
        for (p, &(a, b)) in h.task_pairs.iter().enumerate() {
            if (a == idx || b == idx) && h.ready[a] && h.ready[b] {
                h.pending.push(p);
            }
        }
        // A buffer with no pairs at this node still owes (zero) returns.
        drop(st);
        let h = self.htis.as_ref().expect("built");
        if h.remaining[idx] == 0 && !h.sent[idx] {
            self.htis_send_source(node, idx, ctx);
        }
        self.htis_process_next(node, ctx);
    }

    /// If idle and work is pending, pick the next box pair — the
    /// high-priority queue takes the pair whose force results must
    /// travel farthest (§IV.B.1) — compute its interactions, and model
    /// the pipeline time.
    fn htis_process_next(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let st = lock(&self.state);
        let priority = st.config.priority_queue;
        let h = self.htis.as_mut().expect("built");
        if h.busy {
            return;
        }
        if h.pending.is_empty() {
            // Pipelines idle, waiting for more buffers (Figure 13's
            // "(wait for positions)" gray regions).
            if self.htis_idle_since.is_none() {
                self.htis_idle_since = Some(ctx.now());
            }
            return;
        }
        if let Some(from) = self.htis_idle_since.take() {
            drop(st);
            ctx.record_stall(TRACK_HTIS, from, "wait for positions");
            return self.htis_process_next(node, ctx);
        }
        let pick = if priority {
            let key = |p: usize| {
                let (a, b) = h.task_pairs[p];
                h.return_hops[a].max(h.return_hops[b])
            };
            (0..h.pending.len())
                .max_by_key(|&i| key(h.pending[i]))
                .expect("nonempty")
        } else {
            0
        };
        let pair = h.pending.swap_remove(pick);
        h.busy = true;
        h.current_pair = pair;
        let (ia, ib) = h.task_pairs[pair];
        let same = ia == ib;
        // Compute the pair physics (real forces; erf corrections for
        // excluded pairs on long-range steps).
        let lr = st.scratch.long_range;
        let cutoff_sq = st.config.md.cutoff * st.config.md.cutoff;
        let sigma = st.config.md.ewald_sigma;
        let a_coef = 1.0 / (std::f64::consts::SQRT_2 * sigma);
        let pbox = st.sys.pbox;
        let (mut e_lj, mut e_coul, mut e_lr) = (0.0f64, 0.0f64, 0.0f64);
        let mut virial = 0.0f64;
        let mut pairs_examined = 0u64;
        let na = h.imported[ia].len();
        // Split-borrow the two buffers' force accumulators.
        for xa in 0..na {
            let (atom_a, pa) = h.imported[ia][xa];
            let start = if same { xa + 1 } else { 0 };
            for xb in start..h.imported[ib].len() {
                let (atom_b, pb) = h.imported[ib][xb];
                pairs_examined += 1;
                let d = pbox.min_image(pa, pb);
                let r_sq = d.norm_sq();
                if r_sq >= cutoff_sq {
                    continue;
                }
                if st.sys.is_excluded(atom_a as usize, atom_b as usize) {
                    if lr {
                        let qq = COULOMB
                            * st.sys.atoms[atom_a as usize].charge
                            * st.sys.atoms[atom_b as usize].charge;
                        if qq != 0.0 {
                            let r = r_sq.sqrt();
                            e_lr -= qq * erf(a_coef * r) / r;
                            let gauss = (2.0 * a_coef / std::f64::consts::PI.sqrt())
                                * (-a_coef * a_coef * r_sq).exp();
                            let de_dr = qq * (gauss / r - erf(a_coef * r) / r_sq);
                            let fb = d * (de_dr / r);
                            h.lr[ib][xb] += fb;
                            h.lr[ia][xa] -= fb;
                        }
                    }
                    continue;
                }
                let aa = &st.sys.atoms[atom_a as usize];
                let ab = &st.sys.atoms[atom_b as usize];
                let sig = 0.5 * (aa.lj_sigma + ab.lj_sigma);
                let eps = (aa.lj_epsilon * ab.lj_epsilon).sqrt();
                let (elj, ec, fb) =
                    pair_interaction(d, aa.charge, ab.charge, sig, eps, Some(sigma));
                e_lj += elj;
                e_coul += ec;
                virial += d.dot(fb);
                h.rl[ib][xb] += fb;
                h.rl[ia][xa] -= fb;
            }
        }
        let cost = st.config.cost.htis_pairs(pairs_examined, 1);
        drop(st);
        let mut st = lock(&self.state);
        st.scratch.e_lj[node.index()] += e_lj;
        st.scratch.e_coulomb[node.index()] += e_coul;
        st.scratch.e_long_range[node.index()] += e_lr;
        st.scratch.virial[node.index()] += virial;
        drop(st);
        self.add_compute(node, cost);
        ctx.set_phase("range-limited");
        ctx.compute(
            node,
            ClientKind::Htis,
            TRACK_HTIS,
            cost,
            TAG_HTIS_DONE,
            "range-limited",
        );
    }

    /// A pair finished in the pipelines: release completed buffers'
    /// force returns and continue with the next ready pair.
    fn htis_pair_done(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let h = self.htis.as_mut().expect("built");
        let (a, b) = h.task_pairs[h.current_pair];
        h.remaining[a] -= 1;
        if b != a {
            h.remaining[b] -= 1;
        }
        h.busy = false;
        let mut to_send = Vec::new();
        for idx in [a, b] {
            let h = self.htis.as_ref().expect("built");
            if h.remaining[idx] == 0 && !h.sent[idx] && !to_send.contains(&idx) {
                to_send.push(idx);
            }
        }
        for idx in to_send {
            self.htis_send_source(node, idx, ctx);
        }
        self.htis_process_next(node, ctx);
    }

    /// Send one source box's packed force-return packets (range-limited
    /// always; erf corrections on long-range steps).
    fn htis_send_source(&mut self, node: NodeId, idx: usize, ctx: &mut Ctx<'_, '_>) {
        ctx.set_phase("force return");
        let lr_step = lock(&self.state).scratch.long_range;
        let h = self.htis.as_mut().expect("built");
        debug_assert!(!h.sent[idx]);
        h.sent[idx] = true;
        let dest_box = h.sources[idx];
        let rl = std::mem::take(&mut h.rl[idx]);
        let lr = std::mem::take(&mut h.lr[idx]);
        self.send_force_chunks(node, ctx, dest_box, &rl, 0);
        if lr_step {
            self.send_force_chunks(node, ctx, dest_box, &lr, A_LR);
        }
    }

    /// Send packed force-return accumulate packets for one region
    /// (`base` 0 for range-limited, `A_LR` for erf corrections /
    /// interpolation results).
    fn send_force_chunks(
        &self,
        node: NodeId,
        ctx: &mut Ctx<'_, '_>,
        dest_box: Coord,
        forces: &[Vec3],
        base: u64,
    ) {
        let st = lock(&self.state);
        let dims = st.decomp.dims;
        let capacity = st.plan.capacity as usize;
        let pack = st.config.force_pack;
        let dest = accum0(dest_box.node_id(dims));
        drop(st);
        let mut slot = 0usize;
        while slot < capacity {
            let n = pack.min(capacity - slot);
            let mut vals = Vec::with_capacity(n * 3);
            for k in 0..n {
                let f = forces.get(slot + k).copied().unwrap_or(Vec3::ZERO);
                let enc = fixed::encode_force(f);
                vals.extend_from_slice(&enc);
            }
            let pkt = Packet::accumulate(htis(node), dest, base + (slot as u64) * 12, vals)
                .with_counter(C_FORCE);
            ctx.send(pkt);
            slot += n;
        }
    }

    // ---------------- bonded forces (slices) ----------------

    fn bonded_compute(&mut self, node: NodeId, s: u8, ctx: &mut Ctx<'_, '_>) {
        ctx.set_phase("bonded");
        let st = lock(&self.state);
        let nt = &st.bond_program.terms_at[node.index()];
        let pbox = st.sys.pbox;
        let fetch = |atom: usize| -> Vec3 {
            match ctx.mem_read(slice(node, s), A_BPOS + atom as u64) {
                Some(Payload::F64s(v)) if v.len() == 3 => Vec3::new(v[0], v[1], v[2]),
                other => panic!("missing bonded position for atom {atom}: {other:?}"),
            }
        };
        let mut forces: std::collections::HashMap<u32, Vec3> = Default::default();
        let mut e_bonded = 0.0;
        let mut n_terms = 0u64;
        let nb = st.sys.bonds.len();
        let na = st.sys.angles.len();
        for &t in &nt.bonds {
            if (t as usize) % 4 != s as usize {
                continue;
            }
            let b = st.sys.bonds[t as usize];
            let pos = [fetch(b.i), fetch(b.j)];
            let local = anton_md::Bond { i: 0, j: 1, ..b };
            let mut f = [Vec3::ZERO; 2];
            e_bonded += anton_md::bonded::bond_force(&local, &pos, &pbox, &mut f);
            *forces.entry(b.i as u32).or_default() += f[0];
            *forces.entry(b.j as u32).or_default() += f[1];
            n_terms += 1;
        }
        for &t in &nt.angles {
            if (nb + t as usize) % 4 != s as usize {
                continue;
            }
            let a = st.sys.angles[t as usize];
            let pos = [fetch(a.i), fetch(a.j), fetch(a.k_atom)];
            let local = anton_md::Angle {
                i: 0,
                j: 1,
                k_atom: 2,
                ..a
            };
            let mut f = [Vec3::ZERO; 3];
            e_bonded += anton_md::bonded::angle_force(&local, &pos, &pbox, &mut f);
            *forces.entry(a.i as u32).or_default() += f[0];
            *forces.entry(a.j as u32).or_default() += f[1];
            *forces.entry(a.k_atom as u32).or_default() += f[2];
            n_terms += 1;
        }
        for &t in &nt.dihedrals {
            if (nb + na + t as usize) % 4 != s as usize {
                continue;
            }
            let dh = st.sys.dihedrals[t as usize];
            let pos = [fetch(dh.i), fetch(dh.j), fetch(dh.k_atom), fetch(dh.l)];
            let local = anton_md::Dihedral {
                i: 0,
                j: 1,
                k_atom: 2,
                l: 3,
                ..dh
            };
            let mut f = [Vec3::ZERO; 4];
            e_bonded += anton_md::bonded::dihedral_force(&local, &pos, &pbox, &mut f);
            *forces.entry(dh.i as u32).or_default() += f[0];
            *forces.entry(dh.j as u32).or_default() += f[1];
            *forces.entry(dh.k_atom as u32).or_default() += f[2];
            *forces.entry(dh.l as u32).or_default() += f[3];
            n_terms += 1;
        }
        let cost = st.config.cost.bonded(n_terms);
        let expected: Vec<u32> = st.plan.bond_returns[node.index()][s as usize].clone();
        drop(st);

        // Every planned (slice, atom) pair returns a packet, zero or not,
        // so the receiver's count stays fixed.
        let mut out: Vec<(u32, Vec3)> = expected
            .iter()
            .map(|&a| (a, forces.get(&a).copied().unwrap_or(Vec3::ZERO)))
            .collect();
        out.sort_by_key(|&(a, _)| a);
        let mut st = lock(&self.state);
        st.scratch.e_bonded[node.index()] += e_bonded;
        st.scratch.bond_forces[node.index()][s as usize] = out;
        drop(st);
        self.add_compute(node, cost);
        ctx.compute(
            node,
            ClientKind::Slice(s),
            TRACK_GC,
            cost,
            TAG_BOND_DONE + s as u64,
            "bonded",
        );
    }

    fn bonded_send(&mut self, node: NodeId, s: u8, ctx: &mut Ctx<'_, '_>) {
        let st = lock(&self.state);
        let dims = st.decomp.dims;
        let returns = st.scratch.bond_forces[node.index()][s as usize].clone();
        let owners = returns
            .iter()
            .map(|&(a, _)| (st.owners[a as usize], st.slots[a as usize]))
            .collect::<Vec<_>>();
        drop(st);
        for (&(atom, f), &(owner, slot)) in returns.iter().zip(&owners) {
            let _ = atom;
            let pkt = Packet::accumulate(
                slice(node, s),
                accum0(owner),
                slot as u64 * 12,
                fixed::encode_force(f).to_vec(),
            )
            .with_counter(C_FORCE);
            let _ = dims;
            ctx.send(pkt);
        }
    }

    // ---------------- long range: spreading, FFT, interpolation ----------------

    fn start_spread(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let st = lock(&self.state);
        let atoms = st.node_atoms(node).len() as u64;
        let spread = SpreadParams::for_ewald_sigma(st.config.md.ewald_sigma);
        let h = st.sys.pbox.lengths.x / st.config.md.grid[0] as f64;
        let support = spread.sigma_s * spread.support_sigmas;
        let pts = ((2.0 * support / h).ceil() as u64 + 1).pow(3);
        let cost = st.config.cost.spread(atoms, pts);
        drop(st);
        self.add_compute(node, cost);
        ctx.compute(
            node,
            ClientKind::Htis,
            TRACK_HTIS,
            cost,
            TAG_SPREAD_DONE,
            "charge spread",
        );
    }

    fn spread_send(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        ctx.set_phase("charge spread");
        let st = lock(&self.state);
        let map = st.grid_map;
        let dims = st.decomp.dims;
        let me = node.coord(dims);
        let spread = SpreadParams::for_ewald_sigma(st.config.md.ewald_sigma);
        // Spread this node's atoms onto a scratch global grid (only the
        // halo region receives mass; asserted below).
        let mut grid = ScalarGrid::zeros(st.config.md.grid, st.sys.pbox);
        let positions: Vec<Vec3> = st
            .node_atoms(node)
            .iter()
            .map(|&a| st.sys.atoms[a as usize].pos)
            .collect();
        let charges: Vec<f64> = st
            .node_atoms(node)
            .iter()
            .map(|&a| st.sys.atoms[a as usize].charge)
            .collect();
        anton_md::grid::spread_charges(&mut grid, &positions, &charges, spread);
        let reach = st.spread_reach_points;
        drop(st);

        // Ship per-halo-target row runs as accumulation packets.
        let b = map.brick();
        let mut first_send = true;
        for dst in fftplan::halo_sources(&map, me) {
            let rows = fftplan::halo_rows(&map, me, dst, reach);
            let origin = [
                dst.x as usize * b[0],
                dst.y as usize * b[1],
                dst.z as usize * b[2],
            ];
            for (z, y, x0, len) in rows {
                let mut vals = Vec::with_capacity(len);
                for dx in 0..len {
                    let g = [origin[0] + x0 + dx, origin[1] + y, origin[2] + z];
                    let idx = g[0] + map.grid[0] * (g[1] + map.grid[1] * g[2]);
                    vals.push(fixed::encode(grid.data[idx], fixed::CHARGE_SCALE));
                }
                let addr = (fftplan::brick_local_index(
                    &map,
                    [origin[0] + x0, origin[1] + y, origin[2] + z],
                ) as u64)
                    * 4;
                let pkt = Packet::accumulate(htis(node), accum1(dst.node_id(map.dims)), addr, vals)
                    .with_counter(C_CHARGE);
                if first_send {
                    let mut stm = lock(&self.state);
                    let t = ctx.now().as_ps();
                    stm.scratch.fft_first_send =
                        Some(stm.scratch.fft_first_send.map_or(t, |v| v.min(t)));
                    first_send = false;
                }
                ctx.send(pkt);
            }
        }
    }

    fn charge_gathered(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        // Slice 0 reads the brick from accumulation memory 1.
        let st = lock(&self.state);
        let map = st.grid_map;
        let b = map.brick();
        let n_points = b[0] * b[1] * b[2];
        let cost = st.config.cost.accum_read(n_points as u64);
        drop(st);
        let words = ctx.accum_read(accum1(node), 0, n_points);
        let decoded: Vec<f64> = words
            .iter()
            .map(|&w| fixed::decode(w, fixed::CHARGE_SCALE))
            .collect();
        let mut st = lock(&self.state);
        st.scratch.brick_charges[node.index()] = decoded;
        drop(st);
        self.add_compute(node, cost);
        ctx.compute(
            node,
            ClientKind::Slice(0),
            TRACK_TS,
            cost,
            TAG_CHARGE_READ,
            "FFT",
        );
    }

    /// Map a grid point to its (owner, slice, counter-stage) for the
    /// given gather stage.
    fn fft_dest(map: &anton_fft::GridMap, stage: usize, g: [usize; 3]) -> (NodeId, u8) {
        let layout_dim = [Dim::X, Dim::Y, Dim::Z, Dim::Y, Dim::X][stage];
        let owner = match stage {
            0..=4 => anton_fft::point_owner(map, Layout::Pencil(layout_dim), g),
            _ => unreachable!(),
        };
        let (du, dv) = anton_fft::transverse(layout_dim);
        let s = fftplan::line_slice(map, layout_dim, g[du.index()], g[dv.index()]);
        (owner, s)
    }

    fn send_fft_points(
        &mut self,
        node: NodeId,
        ctx: &mut Ctx<'_, '_>,
        stage: usize,
        points: &[([usize; 3], Complex)],
    ) {
        ctx.set_phase("FFT");
        let st = lock(&self.state);
        let map = st.grid_map;
        drop(st);
        for (k, &(g, v)) in points.iter().enumerate() {
            let gi = (g[0] + map.grid[0] * (g[1] + map.grid[1] * g[2])) as u64;
            if stage <= 4 {
                let (owner, s) = Self::fft_dest(&map, stage, g);
                let pkt = Packet::write(
                    slice(node, (k % 4) as u8),
                    slice(owner, s),
                    A_FFT + stage as u64 * FFT_STRIDE + gi,
                    Payload::F64s(vec![v.re, v.im]),
                )
                .with_counter(c_fft(stage));
                ctx.send(pkt);
            } else {
                // Final scatter back to the brick owner's slice 0.
                let owner = map.brick_owner(g);
                let pkt = Packet::write(
                    slice(node, (k % 4) as u8),
                    slice(owner, 0),
                    A_FFT + 5 * FFT_STRIDE + gi,
                    Payload::F64s(vec![v.re, v.im]),
                )
                .with_counter(C_BRICKPOT);
                ctx.send(pkt);
            }
        }
    }

    fn brick_points(map: &anton_fft::GridMap, me: Coord) -> Vec<[usize; 3]> {
        let b = map.brick();
        let origin = [
            me.x as usize * b[0],
            me.y as usize * b[1],
            me.z as usize * b[2],
        ];
        let mut out = Vec::with_capacity(b[0] * b[1] * b[2]);
        for z in 0..b[2] {
            for y in 0..b[1] {
                for x in 0..b[0] {
                    out.push([origin[0] + x, origin[1] + y, origin[2] + z]);
                }
            }
        }
        out
    }

    fn charge_scatter(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        // Send the decoded brick charges into X pencils (stage 0).
        let st = lock(&self.state);
        let map = st.grid_map;
        let me = node.coord(st.decomp.dims);
        let charges = st.scratch.brick_charges[node.index()].clone();
        drop(st);
        let pts = Self::brick_points(&map, me);
        let points: Vec<([usize; 3], Complex)> = pts
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, Complex::real(charges[i])))
            .collect();
        self.send_fft_points(node, ctx, 0, &points);
    }

    fn fft_stage_compute(&mut self, node: NodeId, s: u8, stage: usize, ctx: &mut Ctx<'_, '_>) {
        let st = lock(&self.state);
        let map = st.grid_map;
        let dim = [Dim::X, Dim::Y, Dim::Z, Dim::Y, Dim::X][stage];
        let dir = if stage <= 2 {
            Direction::Forward
        } else {
            Direction::Inverse
        };
        let n = map.grid[dim.index()];
        let (du, dv) = anton_fft::transverse(dim);
        // This slice's lines.
        let lines: Vec<(usize, usize)> = map
            .lines_owned(dim, node)
            .into_iter()
            .filter(|&(u, v)| fftplan::line_slice(&map, dim, u, v) == s)
            .collect();
        let sigma = st.config.md.ewald_sigma;
        let spread = SpreadParams::for_ewald_sigma(sigma);
        let pbox = st.sys.pbox;
        let grid_dims = st.config.md.grid;
        let cost = st.config.cost.fft_lines(lines.len() as u64, n as u64);
        drop(st);

        let plan = Fft1d::new(n);
        let mut out_points: Vec<([usize; 3], Complex)> = Vec::with_capacity(lines.len() * n);
        for &(u, v) in &lines {
            let mut line = vec![Complex::ZERO; n];
            let mut gs = vec![[0usize; 3]; n];
            for (w, g) in gs.iter_mut().enumerate() {
                g[dim.index()] = w;
                g[du.index()] = u;
                g[dv.index()] = v;
            }
            for (w, g) in gs.iter().enumerate() {
                let addr = A_FFT
                    + stage as u64 * FFT_STRIDE
                    + (g[0] + map.grid[0] * (g[1] + map.grid[1] * g[2])) as u64;
                match ctx.mem_read(slice(node, s), addr) {
                    Some(Payload::F64s(vv)) if vv.len() == 2 => {
                        line[w] = Complex::new(vv[0], vv[1]);
                    }
                    other => panic!("missing FFT point {g:?} stage {stage}: {other:?}"),
                }
            }
            plan.transform(&mut line, dir);
            if stage == 2 {
                // k-space: multiply by the Poisson/Gaussian kernel, then
                // immediately inverse-transform along z (no communication
                // needed — the data is already in z pencils).
                apply_kernel_line(&mut line, &gs, grid_dims, pbox, sigma, spread.sigma_s);
                plan.transform(&mut line, Direction::Inverse);
            }
            for (w, g) in gs.iter().enumerate() {
                out_points.push((*g, line[w]));
            }
        }
        // Stage bookkeeping: store outputs for the send callback.
        let send_stage = stage + 1;
        self.add_compute(node, cost);
        // Send directly after modeling the compute time: stash points in
        // the program itself via a closure-free mechanism — reuse the
        // scratch: store in a per-(node,slice,stage) map.
        let key = (node, s, send_stage);
        lock(&self.state).scratch.fft_outbox.insert(key, out_points);
        ctx.compute(
            node,
            ClientKind::Slice(s),
            TRACK_GC,
            cost,
            TAG_FFT_DONE + (stage * 4) as u64 + s as u64,
            "FFT",
        );
    }

    fn fft_stage_send(&mut self, node: NodeId, s: u8, stage: usize, ctx: &mut Ctx<'_, '_>) {
        let send_stage = stage + 1;
        let points = lock(&self.state)
            .scratch
            .fft_outbox
            .remove(&(node, s, send_stage))
            .expect("FFT outbox populated");
        self.send_fft_points(node, ctx, send_stage, &points);
    }

    fn potentials_gathered(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        // Slice 0 assembles the potential brick and multicasts its rows
        // to the HTIS halo (Figure 9: "positions/potentials … multicast").
        let st = lock(&self.state);
        let map = st.grid_map;
        let me = node.coord(st.decomp.dims);
        let cost = st
            .config
            .cost
            .accum_read((map.brick().iter().product::<usize>()) as u64);
        drop(st);
        let pts = Self::brick_points(&map, me);
        let mut brick = Vec::with_capacity(pts.len());
        for &g in &pts {
            let gi = (g[0] + map.grid[0] * (g[1] + map.grid[1] * g[2])) as u64;
            match ctx.mem_read(slice(node, 0), A_FFT + 5 * FFT_STRIDE + gi) {
                Some(Payload::F64s(v)) if v.len() == 2 => brick.push(v[0]),
                other => panic!("missing potential point {g:?}: {other:?}"),
            }
        }
        let mut st = lock(&self.state);
        st.scratch.potential_brick[node.index()] = brick;
        drop(st);
        self.add_compute(node, cost);
        ctx.compute(
            node,
            ClientKind::Slice(0),
            TRACK_TS,
            cost,
            TAG_POTCAST,
            "FFT",
        );
    }

    fn potential_multicast(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let st = lock(&self.state);
        let map = st.grid_map;
        let dims = st.decomp.dims;
        let me = node.coord(dims);
        let pot_pattern = st.patterns.pot_id(me);
        let brick = st.scratch.potential_brick[node.index()].clone();
        drop(st);
        let b = map.brick();
        for z in 0..b[2] {
            for y in 0..b[1] {
                let row = z * b[1] + y;
                let mut vals = Vec::with_capacity(b[0]);
                for x in 0..b[0] {
                    vals.push(brick[x + b[0] * (y + b[1] * z)]);
                }
                let pkt = Packet::write(
                    slice(node, (row % 4) as u8),
                    htis(node),
                    A_POTROW + node.0 as u64 * 64 + row as u64,
                    Payload::F64s(vals),
                )
                .with_counter(C_POT)
                .into_multicast(pot_pattern, ClientKind::Htis);
                ctx.send(pkt);
            }
        }
    }

    /// FFT-only mode: arm the convolution counters and scatter the
    /// pre-seeded brick charges immediately (Table 3's isolated row and
    /// the 4-µs comparison of [47]).
    fn start_fft_only(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let st = lock(&self.state);
        let map = st.grid_map;
        for (stage, dim) in [Dim::X, Dim::Y, Dim::Z, Dim::Y, Dim::X].iter().enumerate() {
            let targets = fftplan::pencil_targets(&map, *dim);
            for s in 0..4u8 {
                ctx.watch_counter(
                    slice(node, s),
                    c_fft(stage),
                    targets[node.index()][s as usize],
                );
            }
        }
        let brick = map.brick();
        ctx.watch_counter(
            slice(node, 0),
            C_BRICKPOT,
            (brick[0] * brick[1] * brick[2]) as u64,
        );
        ctx.watch_counter(
            htis(node),
            C_POT,
            fftplan::potential_targets(&map)[node.index()],
        );
        drop(st);
        self.charge_scatter(node, ctx);
    }

    fn interpolate(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        if lock(&self.state).scratch.fft_only {
            let mut st = lock(&self.state);
            let t = ctx.now().as_ps();
            st.scratch.fft_last_pot = Some(st.scratch.fft_last_pot.map_or(t, |v| v.max(t)));
            drop(st);
            self.mark_done();
            return;
        }
        ctx.set_phase("force interpolation");
        let st = lock(&self.state);
        let map = st.grid_map;
        let dims = st.decomp.dims;
        let me = node.coord(dims);
        let spread = SpreadParams::for_ewald_sigma(st.config.md.ewald_sigma);
        // Assemble the halo'd potential grid from received rows.
        let mut grid = ScalarGrid::zeros(st.config.md.grid, st.sys.pbox);
        let b = map.brick();
        for src in fftplan::halo_sources(&map, me) {
            let src_id = src.node_id(dims);
            let origin = [
                src.x as usize * b[0],
                src.y as usize * b[1],
                src.z as usize * b[2],
            ];
            for z in 0..b[2] {
                for y in 0..b[1] {
                    let row = z * b[1] + y;
                    match ctx.mem_read(htis(node), A_POTROW + src_id.0 as u64 * 64 + row as u64) {
                        Some(Payload::F64s(vals)) => {
                            for (x, &v) in vals.iter().enumerate() {
                                let g = [origin[0] + x, origin[1] + y, origin[2] + z];
                                let idx = g[0] + map.grid[0] * (g[1] + map.grid[1] * g[2]);
                                grid.data[idx] = v;
                            }
                        }
                        other => panic!("missing potential row {row} from {src}: {other:?}"),
                    }
                }
            }
        }
        let atoms = st.node_atoms(node).to_vec();
        let positions: Vec<Vec3> = atoms
            .iter()
            .map(|&a| st.sys.atoms[a as usize].pos)
            .collect();
        let charges: Vec<f64> = atoms
            .iter()
            .map(|&a| st.sys.atoms[a as usize].charge)
            .collect();
        let sigma = st.config.md.ewald_sigma;
        let h = st.sys.pbox.lengths.x / st.config.md.grid[0] as f64;
        let support = spread.sigma_s * spread.support_sigmas;
        let pts = ((2.0 * support / h).ceil() as u64 + 1).pow(3);
        let cost = st.config.cost.interpolate(atoms.len() as u64, pts);
        drop(st);

        let mut lr_forces = vec![Vec3::ZERO; atoms.len()];
        anton_md::grid::interpolate_forces(
            &grid,
            &positions,
            &charges,
            spread,
            COULOMB,
            &mut lr_forces,
        );
        let phi = anton_md::grid::interpolate_potential(&grid, &positions, spread);
        let mut e = 0.5 * COULOMB * charges.iter().zip(&phi).map(|(&q, &p)| q * p).sum::<f64>();
        // Self-energy for this node's atoms.
        let q_sq: f64 = charges.iter().map(|&q| q * q).sum();
        e -= COULOMB * q_sq / ((2.0 * std::f64::consts::PI).sqrt() * sigma);

        let mut st = lock(&self.state);
        st.scratch.e_long_range[node.index()] += e;
        let t = ctx.now().as_ps();
        st.scratch.fft_last_pot = Some(st.scratch.fft_last_pot.map_or(t, |v| v.max(t)));
        st.scratch.fft_interp.insert(node, lr_forces);
        drop(st);
        self.add_compute(node, cost);
        ctx.compute(
            node,
            ClientKind::Htis,
            TRACK_HTIS,
            cost,
            TAG_INTERP_DONE,
            "interpolation",
        );
    }

    fn interp_send(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let forces = lock(&self.state)
            .scratch
            .fft_interp
            .remove(&node)
            .expect("interpolation results present");
        let me = {
            let st = lock(&self.state);
            node.coord(st.decomp.dims)
        };
        self.send_force_chunks(node, ctx, me, &forces, A_LR);
    }

    // ---------------- integration + thermostat ----------------

    fn forces_ready(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        ctx.set_phase("integration");
        if let Some(from) = self.ts_idle_since.take() {
            ctx.record_stall(TRACK_TS, from, "wait for forces");
        }
        {
            let mut st = lock(&self.state);
            let t = ctx.now().as_ps();
            st.scratch.ts_force = Some(match st.scratch.ts_force {
                None => (t, t),
                Some((a, b)) => (a.min(t), b.max(t)),
            });
        }
        let st = lock(&self.state);
        let capacity = st.plan.capacity as u64;
        let cost = st.config.cost.accum_read(capacity);
        drop(st);
        self.add_compute(node, cost);
        ctx.compute(
            node,
            ClientKind::Slice(0),
            TRACK_TS,
            cost,
            TAG_ACCUM_READ,
            "force read",
        );
    }

    fn decode_and_integrate(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let st = lock(&self.state);
        let atoms = st.node_atoms(node).to_vec();
        let lr_step = st.scratch.long_range;
        let bootstrap = st.scratch.bootstrap;
        drop(st);
        // Decode the range-limited+bonded region, and the long-range
        // region on fresh steps.
        let n = atoms.len();
        let rl_words = ctx.accum_read(accum0(node), 0, n * 3);
        let lr_words = if lr_step {
            ctx.accum_read(accum0(node), A_LR, n * 3)
        } else {
            Vec::new()
        };
        let mut st = lock(&self.state);
        for (slot, &atom) in atoms.iter().enumerate() {
            let f_rl = fixed::decode_force([
                rl_words[slot * 3],
                rl_words[slot * 3 + 1],
                rl_words[slot * 3 + 2],
            ]);
            if lr_step {
                let f_lr = fixed::decode_force([
                    lr_words[slot * 3],
                    lr_words[slot * 3 + 1],
                    lr_words[slot * 3 + 2],
                ]);
                st.lr_forces[atom as usize] = f_lr;
            }
            let total = f_rl + st.lr_forces[atom as usize];
            st.scratch.new_forces[atom as usize] = total;
        }
        let share = n.div_ceil(4) as u64;
        let cost = st.config.cost.integrate(share);
        let thermostat = st.scratch.thermostat;
        drop(st);

        if bootstrap {
            self.mark_done();
            return;
        }
        self.add_compute(node, cost);
        for s in 0..4u8 {
            let tag = if s == 0 { TAG_INTEG2 } else { u64::MAX };
            ctx.compute(node, ClientKind::Slice(s), TRACK_TS, cost, tag, "integrate");
        }
        let _ = thermostat;
    }

    fn second_half_done(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        // Apply the second half-kick for this node's atoms.
        let mut st = lock(&self.state);
        let dt = st.config.md.dt;
        let atoms = st.node_atoms(node).to_vec();
        for &atom in &atoms {
            let f = st.scratch.new_forces[atom as usize];
            let a = &mut st.sys.atoms[atom as usize];
            let acc = f * (anton_md::units::ACCEL_CONVERSION / a.mass);
            a.vel += acc * (0.5 * dt);
        }
        let thermostat = st.scratch.thermostat;
        if !thermostat {
            drop(st);
            self.mark_done();
            return;
        }
        // Kinetic-energy partial for the thermostat reduction.
        let ke: f64 = atoms
            .iter()
            .map(|&a| {
                let at = &st.sys.atoms[a as usize];
                kinetic_energy(at.mass, at.vel.norm_sq())
            })
            .sum();
        st.scratch.ke_partial[node.index()] = ke;
        let t = ctx.now().as_ps();
        st.scratch.reduce_first = Some(st.scratch.reduce_first.map_or(t, |v| v.min(t)));
        let cost = st.config.cost.kinetic(atoms.len() as u64);
        let virial = st.scratch.virial[node.index()];
        drop(st);
        // The paper's reductions compute "the kinetic energy or virial"
        // (§II); carry both in one 16-byte reduction.
        self.ar_value = ke;
        self.ar_virial = virial;
        self.ar_round = 0;
        self.add_compute(node, cost);
        ctx.compute(
            node,
            ClientKind::Slice(0),
            TRACK_TS,
            cost,
            TAG_AR,
            "kinetic energy",
        );
    }

    // ---------------- thermostat all-reduce (dimension-ordered) ----------------

    fn ar_advance(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        ctx.set_phase("global reduction");
        let dims = ctx.dims();
        while self.ar_round < 3 && dims.len(Dim::ALL[self.ar_round]) <= 1 {
            self.ar_round += 1;
        }
        if self.ar_round >= 3 {
            self.ar_finish(node, ctx);
            return;
        }
        let dim = Dim::ALL[self.ar_round];
        let me = node.coord(dims);
        let s = ClientKind::Slice(self.ar_round as u8);
        ctx.watch_counter(
            ClientAddr::new(node, s),
            c_ar(self.ar_round),
            dims.len(dim) as u64,
        );
        let pkt = Packet::write(
            ClientAddr::new(node, s),
            ClientAddr::new(node, s),
            A_AR + (self.ar_round as u64) * 0x1000 + me.get(dim) as u64 * 16,
            Payload::F64s(vec![self.ar_value, self.ar_virial]),
        )
        .with_counter(c_ar(self.ar_round))
        .into_multicast(lock(&self.state).patterns.ar_id(dim, me), s);
        ctx.send(pkt);
    }

    fn ar_round_done(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let dims = ctx.dims();
        let dim = Dim::ALL[self.ar_round];
        let s = ClientKind::Slice(self.ar_round as u8);
        let (mut sum, mut vsum) = (0.0, 0.0);
        for c in 0..dims.len(dim) {
            let addr = A_AR + (self.ar_round as u64) * 0x1000 + c as u64 * 16;
            match ctx.mem_take(ClientAddr::new(node, s), addr) {
                Some(Payload::F64s(v)) => {
                    sum += v[0];
                    vsum += v[1];
                }
                other => panic!("missing all-reduce contribution {c}: {other:?}"),
            }
        }
        self.ar_value = sum;
        self.ar_virial = vsum;
        self.ar_round += 1;
        let st = lock(&self.state);
        let cost = SimDuration::from_ns_f64(10.0 + 4.5 * dims.len(dim) as f64);
        drop(st);
        self.add_compute(node, cost);
        ctx.compute(node, s, TRACK_TS, cost, TAG_AR, "global reduction");
    }

    fn ar_finish(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        // Every node now holds the identical global kinetic energy.
        let mut st = lock(&self.state);
        let ke_total = self.ar_value;
        let n_total = st.sys.atoms.len();
        let k = st.step_count + 1;
        let th_due = st
            .config
            .md
            .thermostat
            .filter(|t| k.is_multiple_of(t.interval as u64));
        if let Some(th) = th_due {
            let t_inst = anton_md::units::temperature(ke_total, n_total);
            let lambda = if t_inst <= 0.0 {
                1.0
            } else {
                (1.0 + st.config.md.dt / th.tau * (th.target / t_inst - 1.0))
                    .max(0.0)
                    .sqrt()
            };
            let atoms = st.node_atoms(node).to_vec();
            for &a in &atoms {
                st.sys.atoms[a as usize].vel = st.sys.atoms[a as usize].vel * lambda;
            }
        }
        let t = ctx.now().as_ps();
        st.scratch.reduce_last = Some(st.scratch.reduce_last.map_or(t, |v| v.max(t)));
        st.scratch.reduced = Some((ke_total, self.ar_virial));
        drop(st);
        self.mark_done();
    }
}

/// Apply the Poisson/Gaussian kernel to one z-line in k-space.
fn apply_kernel_line(
    line: &mut [Complex],
    gs: &[[usize; 3]],
    grid: [usize; 3],
    pbox: anton_md::PeriodicBox,
    sigma: f64,
    sigma_s: f64,
) {
    let two_pi = 2.0 * std::f64::consts::PI;
    let kf = [
        two_pi / pbox.lengths.x,
        two_pi / pbox.lengths.y,
        two_pi / pbox.lengths.z,
    ];
    let residual = (sigma * sigma - 2.0 * sigma_s * sigma_s).max(0.0);
    let fold = |m: usize, n: usize| -> f64 {
        let (m, n) = (m as i64, n as i64);
        (if m <= n / 2 { m } else { m - n }) as f64
    };
    for (w, g) in gs.iter().enumerate() {
        let kx = fold(g[0], grid[0]) * kf[0];
        let ky = fold(g[1], grid[1]) * kf[1];
        let kz = fold(g[2], grid[2]) * kf[2];
        let k_sq = kx * kx + ky * ky + kz * kz;
        if k_sq == 0.0 {
            line[w] = Complex::ZERO;
        } else {
            let kern = 4.0 * std::f64::consts::PI / k_sq * (-0.5 * residual * k_sq).exp();
            line[w] = line[w].scale(kern);
        }
    }
}

impl NodeProgram for MdNode {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => self.on_start(node, ctx),
            ProgEvent::Timer { tag, .. } => match tag {
                u64::MAX => {}
                TAG_INTEG1 => {
                    let migration = lock(&self.state).scratch.migration;
                    if migration {
                        self.start_migration(node, ctx);
                    } else {
                        self.distribute(node, ctx);
                    }
                }
                TAG_MIG_DONE => self.distribute(node, ctx),
                TAG_HTIS_DONE => self.htis_pair_done(node, ctx),
                t @ TAG_BOND_DONE..=7 => self.bonded_send(node, (t - TAG_BOND_DONE) as u8, ctx),
                TAG_SPREAD_DONE => self.spread_send(node, ctx),
                TAG_CHARGE_READ => self.charge_scatter(node, ctx),
                t @ TAG_FFT_DONE..=35 => {
                    let rel = t - TAG_FFT_DONE;
                    self.fft_stage_send(node, (rel % 4) as u8, (rel / 4) as usize, ctx);
                }
                TAG_POTCAST => self.potential_multicast(node, ctx),
                TAG_INTERP_DONE => self.interp_send(node, ctx),
                TAG_ACCUM_READ => self.decode_and_integrate(node, ctx),
                TAG_INTEG2 => self.second_half_done(node, ctx),
                TAG_AR => self.ar_advance(node, ctx),
                other => panic!("unknown timer tag {other}"),
            },
            ProgEvent::CounterReached { client, counter } => match (client, counter) {
                (ClientKind::Htis, C_POT) => self.interpolate(node, ctx),
                (ClientKind::Htis, c) if c.0 >= 16 => {
                    self.htis_buffer_ready(node, (c.0 - 16) as usize, ctx)
                }
                (ClientKind::Accum(0), C_FORCE) => self.forces_ready(node, ctx),
                (ClientKind::Accum(1), C_CHARGE) => self.charge_gathered(node, ctx),
                (ClientKind::Slice(s), C_BPOS) => self.bonded_compute(node, s, ctx),
                (ClientKind::Slice(0), C_BRICKPOT) => self.potentials_gathered(node, ctx),
                (ClientKind::Slice(0), C_MIGSYNC) => self.migration_synced(node, ctx),
                (ClientKind::Slice(s), c) if (2..7).contains(&c.0) => {
                    self.fft_stage_compute(node, s, (c.0 - 2) as usize, ctx)
                }
                (ClientKind::Slice(_), c) if (12..15).contains(&c.0) => {
                    self.ar_round_done(node, ctx)
                }
                other => panic!("unexpected counter event {other:?}"),
            },
            ProgEvent::FifoMessage { .. } => {
                // Migration messages: bookkeeping was pre-applied by the
                // engine; count the message for the migration cost model.
                let mut st = lock(&self.state);
                st.scratch.mig_received[node.index()] += 1;
            }
        }
    }
}

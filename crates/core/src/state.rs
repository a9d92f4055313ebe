//! Shared machine state and the per-epoch communication plan.
//!
//! The DES node programs share one `MachineState` behind `Arc<Mutex>`,
//! which pins them to one slab: nodes on different slabs would read one
//! another's writes in an order that depends on the shard plan.
//! Discipline: programs may freely read *static program data* (topology,
//! plans, expected counts — things Anton's software also knows ahead of
//! time) and their own node's data, but dynamic values produced by other
//! nodes (positions, forces, charges, potentials) travel only inside
//! packets through the simulated fabric.

use crate::bondprog::BondProgram;
use crate::cost::CostModel;
use crate::decomp::Decomposition;
use crate::patterns::MdPatterns;
use anton_des::SimDuration;
use anton_fft::{Complex, GridMap};
use anton_md::{ChemicalSystem, MdParams, Vec3};
use anton_topo::{Coord, NodeId};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Lock the shared machine state. The engine and the node programs take
/// it one at a time on one thread — the engine between DES runs, each
/// handler inside its own event — so it is always free: a failed
/// `try_lock` means a re-entrant use, or a machine run on several slabs,
/// and panics instead of deadlocking.
pub(crate) fn lock(state: &Mutex<MachineState>) -> MutexGuard<'_, MachineState> {
    state
        .try_lock()
        .expect("the MD machine state is shared and must run on one slab")
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct AntonConfig {
    /// MD physics parameters (cutoff, grid, intervals, thermostat,
    /// barostat).
    pub md: MdParams,
    /// Migration interval in steps (Figure 12 sweeps 1–8).
    pub migration_interval: u32,
    /// Relaxed home-box margin, Å. Grows with the migration interval:
    /// atoms must stay in box+margin between migrations.
    pub margin: f64,
    /// Bond-program regeneration interval in steps (§IV.B.2:
    /// 100,000–200,000; `None` disables regeneration, the upper curve of
    /// Figure 11).
    pub regen_interval: Option<u64>,
    /// Padded per-node atom capacity factor over the current maximum
    /// ("worst-case temporal fluctuations in atom density", §IV.B.1).
    pub capacity_slack: f64,
    /// Compute-cost calibration.
    pub cost: CostModel,
    /// Network timing model (scaled copies make latency-sensitivity
    /// ablations possible).
    pub timing: anton_net::Timing,
    /// Use the HTIS high-priority buffer queue (farthest force results
    /// first; §IV.B.1). Off for the ablation bench.
    pub priority_queue: bool,
    /// Maximum atoms packed into one force-return packet (16 × 12 B =
    /// 192 B payload).
    pub force_pack: usize,
    /// Fault-injection plan for the fabric ([`anton_net::FaultPlan::none`]
    /// by default — bit-identical to a fault-free fabric).
    pub fault: anton_net::FaultPlan,
}

impl AntonConfig {
    /// Paper-flavored defaults for a given MD parameter set.
    pub fn new(md: MdParams) -> AntonConfig {
        AntonConfig {
            md,
            migration_interval: 8,
            margin: 0.75,
            regen_interval: Some(120_000),
            capacity_slack: 1.25,
            cost: CostModel::default(),
            timing: anton_net::Timing::default(),
            priority_queue: true,
            force_pack: 16,
            fault: anton_net::FaultPlan::none(),
        }
    }
}

/// Fixed communication bookkeeping, recomputed at epoch boundaries
/// (migration or bond-program regeneration).
#[derive(Debug, Clone)]
pub struct EpochPlan {
    /// Padded atom capacity per node (position packets per source box).
    pub capacity: u32,
    /// Per node: expected position packets at the HTIS.
    pub htis_pos_target: Vec<u64>,
    /// Per node, per slice: expected bonded-position packets.
    pub bond_pos_target: Vec<[u64; 4]>,
    /// Per node: expected force packets at accumulation memory 0 on a
    /// range-limited step.
    pub force_target_rl: Vec<u64>,
    /// Additional force packets on a long-range step (erf corrections
    /// from HTIS pair nodes + local interpolation returns).
    pub force_target_lr_extra: Vec<u64>,
    /// Bonded position sends: (sender, atom, dest node, dest slice).
    pub bond_sends: Vec<(NodeId, u32, Coord, u8)>,
    /// The same sends grouped by sender node for O(1) per-node lookup.
    pub bond_sends_by_node: Vec<Vec<(u32, Coord, u8)>>,
    /// Per (node, slice): bonded force-return contributions
    /// (atom, counted once per term slice touching it).
    pub bond_returns: Vec<Vec<Vec<u32>>>,
}

/// Per-step, per-node timing pieces used for Table 3's
/// "communication = total − critical-path arithmetic".
#[derive(Debug, Clone, Default)]
pub struct StepTiming {
    /// Total step wall time (simulated).
    pub total: SimDuration,
    /// Per-node sum of arithmetic durations this step.
    pub compute_per_node: Vec<SimDuration>,
    /// Whether the step evaluated the long-range forces.
    pub long_range: bool,
    /// Whether the step ran the global reduction.
    pub thermostat: bool,
    /// Whether the step ran a migration phase.
    pub migration: bool,
    /// FFT convolution span (first charge packet → last potential
    /// delivered), if a long-range step.
    pub fft_span: SimDuration,
    /// Thermostat all-reduce span.
    pub reduce_span: SimDuration,
    /// Migration phase span (start → all nodes synced).
    pub migration_span: SimDuration,
}

impl StepTiming {
    /// The critical-path arithmetic time (max over nodes), the paper's
    /// subtrahend.
    pub fn critical_compute(&self) -> SimDuration {
        self.compute_per_node
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Critical-path communication time = total − critical arithmetic.
    pub fn communication(&self) -> SimDuration {
        self.total.saturating_sub(self.critical_compute())
    }
}

/// The machine-wide mutable state shared by node programs.
pub struct MachineState {
    /// The chemical system (positions/velocities mutate per step).
    pub sys: ChemicalSystem,
    /// Engine configuration.
    pub config: AntonConfig,
    /// Spatial decomposition (rebuilt if the barostat rescales the box).
    pub decomp: Decomposition,
    /// Long-range grid ↔ machine mapping.
    pub grid_map: GridMap,
    /// Colored multicast pattern families (geometry-static).
    pub patterns: MdPatterns,
    /// Current home node per atom (relaxed; updated at migration).
    pub owners: Vec<NodeId>,
    /// Per node: owned atom ids, slot order.
    pub local_atoms: Vec<Vec<u32>>,
    /// Per atom: (home slot) — index into its owner's list.
    pub slots: Vec<u32>,
    /// Forces at current positions (decoded from accumulation memories
    /// at the end of the previous step; used for the first half-kick).
    pub forces_prev: Vec<Vec3>,
    /// Cached long-range forces (fresh every `long_range_interval`).
    pub lr_forces: Vec<Vec3>,
    /// The current bond program and the step it was generated at.
    pub bond_program: BondProgram,
    /// Step at which the bond program was generated.
    pub bond_program_age: u64,
    /// The fixed communication plan of the current epoch.
    pub plan: EpochPlan,
    /// Steps completed.
    pub step_count: u64,
    /// Per-node compute-time accumulator for the in-flight step.
    pub compute_time: Vec<SimDuration>,
    /// Bonded energy of the last fresh evaluation (node-order sum).
    pub e_bonded: f64,
    /// Lennard-Jones energy of the last fresh evaluation.
    pub e_lj: f64,
    /// Real-space Coulomb energy of the last fresh evaluation.
    pub e_coulomb_real: f64,
    /// Long-range energy of the last fresh evaluation.
    pub e_long_range: f64,
    /// Grid-spread support radius in grid points.
    pub spread_reach_points: usize,
    /// Number of migrated atoms in the last migration phase.
    pub last_migrated: u64,
    /// Cached long-range energy (reused on off-steps, like the
    /// reference engine's cache).
    pub last_lr_energy: f64,
    /// Step-transient working data.
    pub scratch: StepScratch,
}

/// Per-step transient state (reset by the engine each step).
#[derive(Debug, Default)]
pub struct StepScratch {
    /// Whether this step is a bootstrap (forces only, no integration).
    pub bootstrap: bool,
    /// FFT-convolution-only run (Table 3's isolated "FFT-based
    /// convolution" row): brick charges are pre-seeded, and the step
    /// ends when every HTIS has its halo potentials.
    pub fft_only: bool,
    /// Whether the step evaluates the long-range forces.
    pub long_range: bool,
    /// Whether the step runs the global reduction.
    pub thermostat: bool,
    /// Whether the step runs a migration phase.
    pub migration: bool,
    /// Migration leavers snapshot per node: (atom, new owner) pairs, the
    /// FIFO traffic of this step (bookkeeping already applied host-side).
    pub leavers: Vec<Vec<(u32, NodeId)>>,
    /// Decoded new forces per atom (filled as FORCE counters fire).
    pub new_forces: Vec<Vec3>,
    /// Per-node decoded charge bricks (after the CHARGE counter fires).
    pub brick_charges: Vec<Vec<f64>>,
    /// Per-node assembled potential bricks (after the final FFT pass).
    pub potential_brick: Vec<Vec<f64>>,
    /// Per-node kinetic-energy partials (thermostat steps).
    pub ke_partial: Vec<f64>,
    /// Per-node range-limited virial partials (barostat input).
    pub virial: Vec<f64>,
    /// Globally reduced [kinetic energy, virial] (set on reduce steps).
    pub reduced: Option<(f64, f64)>,
    /// Per-node all-reduce working value.
    pub ar_value: Vec<f64>,
    /// Per node: HTIS range-limited force partials per source box.
    pub htis_rl: Vec<Vec<(anton_topo::Coord, Vec<Vec3>)>>,
    /// Per node: HTIS erf-correction (long-range) partials per source box.
    pub htis_lr: Vec<Vec<(anton_topo::Coord, Vec<Vec3>)>>,
    /// Per node, per slice: bonded force contributions (atom, force).
    pub bond_forces: Vec<[Vec<(u32, Vec3)>; 4]>,
    /// Per node: migration FIFO messages received this step.
    pub mig_received: Vec<u32>,
    /// Per-node Lennard-Jones energy partials (summed in node order).
    pub e_lj: Vec<f64>,
    /// Per-node real-space Coulomb partials.
    pub e_coulomb: Vec<f64>,
    /// Per-node bonded-energy partials.
    pub e_bonded: Vec<f64>,
    /// Per-node long-range partials (reciprocal − self − exclusions).
    pub e_long_range: Vec<f64>,
    /// (min, max) ps timestamps of HTIS position-buffer completions.
    pub ts_hpos: Option<(u64, u64)>,
    /// (min, max) ps timestamps of force-counter fires.
    pub ts_force: Option<(u64, u64)>,
    /// First charge-spread send (ps).
    pub fft_first_send: Option<u64>,
    /// Last potential delivery/interpolation start (ps).
    pub fft_last_pot: Option<u64>,
    /// First kinetic-energy reduction start (ps).
    pub reduce_first: Option<u64>,
    /// Last all-reduce completion (ps).
    pub reduce_last: Option<u64>,
    /// Last migration-sync counter fire (ps).
    pub migration_last_sync: Option<u64>,
    /// Nodes that have finished the step (completion barrier for
    /// assertions).
    pub nodes_done: u32,
    /// FFT stage outputs awaiting their post-compute send, keyed by
    /// (node, slice, next stage).
    pub fft_outbox: HashMap<(NodeId, u8, usize), FftPoints>,
    /// Interpolated long-range forces awaiting their send, per node.
    pub fft_interp: HashMap<NodeId, Vec<Vec3>>,
}

/// Grid points (coordinates + values) staged between an FFT compute and
/// its send.
pub type FftPoints = Vec<([usize; 3], Complex)>;

impl StepScratch {
    /// Fresh scratch for a machine of `n_nodes` nodes and `n_atoms` atoms.
    pub fn reset(&mut self, n_nodes: usize, n_atoms: usize) {
        *self = StepScratch {
            leavers: vec![Vec::new(); n_nodes],
            new_forces: vec![Vec3::ZERO; n_atoms],
            brick_charges: vec![Vec::new(); n_nodes],
            potential_brick: vec![Vec::new(); n_nodes],
            ke_partial: vec![0.0; n_nodes],
            virial: vec![0.0; n_nodes],
            ar_value: vec![0.0; n_nodes],
            e_lj: vec![0.0; n_nodes],
            e_coulomb: vec![0.0; n_nodes],
            e_bonded: vec![0.0; n_nodes],
            e_long_range: vec![0.0; n_nodes],
            htis_rl: vec![Vec::new(); n_nodes],
            htis_lr: vec![Vec::new(); n_nodes],
            bond_forces: vec![Default::default(); n_nodes],
            mig_received: vec![0; n_nodes],
            ..StepScratch::default()
        };
    }
}

impl MachineState {
    /// Build the initial state: assign atoms, generate the bond program,
    /// compute the first epoch plan.
    pub fn new(sys: ChemicalSystem, config: AntonConfig, dims: anton_topo::TorusDims) -> Self {
        let import_radius = config.md.cutoff + 2.0 * config.margin;
        let decomp = Decomposition::new(dims, sys.pbox, import_radius);
        let grid_map = GridMap::new(config.md.grid, dims);
        // Spread support must stay within one brick for the halo plan.
        let spread = anton_md::grid::SpreadParams::for_ewald_sigma(config.md.ewald_sigma);
        let h = sys.pbox.lengths.x / config.md.grid[0] as f64;
        let reach_pts =
            ((spread.sigma_s * spread.support_sigmas + config.margin) / h).ceil() as usize;
        let brick_min = *grid_map.brick().iter().min().expect("3 axes");
        assert!(
            reach_pts <= brick_min,
            "spread support ({reach_pts} points) exceeds a grid brick ({brick_min}); \
             use a larger machine box or finer machine grid"
        );

        let positions: Vec<Vec3> = sys.atoms.iter().map(|a| a.pos).collect();
        let owners = decomp.assign_atoms(&positions);
        let n_nodes = dims.node_count() as usize;
        let mut local_atoms = vec![Vec::new(); n_nodes];
        for (atom, &o) in owners.iter().enumerate() {
            local_atoms[o.index()].push(atom as u32);
        }
        let mut slots = vec![0u32; sys.atoms.len()];
        for list in &local_atoms {
            for (slot, &atom) in list.iter().enumerate() {
                slots[atom as usize] = slot as u32;
            }
        }
        let bond_program = BondProgram::generate(&sys, &decomp, &positions);
        let patterns = MdPatterns::allocate(&decomp, &grid_map);
        let n_atoms = sys.atoms.len();
        let mut st = MachineState {
            sys,
            config,
            decomp,
            grid_map,
            patterns,
            owners,
            local_atoms,
            slots,
            forces_prev: vec![Vec3::ZERO; n_atoms],
            lr_forces: vec![Vec3::ZERO; n_atoms],
            bond_program,
            bond_program_age: 0,
            plan: EpochPlan {
                capacity: 0,
                htis_pos_target: Vec::new(),
                bond_pos_target: Vec::new(),
                force_target_rl: Vec::new(),
                force_target_lr_extra: Vec::new(),
                bond_sends: Vec::new(),
                bond_sends_by_node: Vec::new(),
                bond_returns: Vec::new(),
            },
            step_count: 0,
            compute_time: vec![SimDuration::ZERO; n_nodes],
            e_bonded: 0.0,
            e_lj: 0.0,
            e_coulomb_real: 0.0,
            e_long_range: 0.0,
            spread_reach_points: reach_pts,
            last_migrated: 0,
            last_lr_energy: 0.0,
            scratch: StepScratch::default(),
        };
        st.scratch.reset(n_nodes, st.sys.atoms.len());
        st.rebuild_plan();
        st
    }

    /// Number of force packets one HTIS returns per source box.
    pub fn force_packets_per_source(&self) -> u64 {
        (self.plan.capacity as usize).div_ceil(self.config.force_pack) as u64
    }

    /// Recompute the epoch plan (after migration or regeneration).
    pub fn rebuild_plan(&mut self) {
        let dims = self.decomp.dims;
        let n_nodes = dims.node_count() as usize;
        let max_atoms = self
            .local_atoms
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .max(1);
        let capacity = ((max_atoms as f64) * self.config.capacity_slack).ceil() as u32;

        // HTIS position targets: capacity packets from each source box.
        let mut htis_pos_target = vec![0u64; n_nodes];
        for c in dims.iter_coords() {
            let id = c.node_id(dims);
            htis_pos_target[id.index()] =
                self.decomp.source_boxes(c).len() as u64 * capacity as u64;
        }

        // Bonded sends and targets. Every member-atom position is sent to
        // (term node, slice-of-term) — including node-local atoms, over
        // the on-chip ring, so receiver counts stay fixed (§IV.A).
        let mut bond_pos_target = vec![[0u64; 4]; n_nodes];
        let mut bond_sends = Vec::new();
        let mut bond_returns: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); 4]; n_nodes];
        {
            // (dest node, slice, atom) triples, deduplicated.
            let mut triples: std::collections::BTreeSet<(u32, u8, u32)> =
                std::collections::BTreeSet::new();
            let bp = &self.bond_program;
            let mut visit = |node: Coord, term_index: usize, atoms: &[usize]| {
                let slice = (term_index % 4) as u8;
                let id = node.node_id(dims);
                for &a in atoms {
                    triples.insert((id.0, slice, a as u32));
                }
            };
            for (t, b) in self.sys.bonds.iter().enumerate() {
                visit(bp.bond_nodes[t], t, &[b.i, b.j]);
            }
            for (t, a) in self.sys.angles.iter().enumerate() {
                visit(
                    bp.angle_nodes[t],
                    self.sys.bonds.len() + t,
                    &[a.i, a.j, a.k_atom],
                );
            }
            for (t, d) in self.sys.dihedrals.iter().enumerate() {
                visit(
                    bp.dihedral_nodes[t],
                    self.sys.bonds.len() + self.sys.angles.len() + t,
                    &[d.i, d.j, d.k_atom, d.l],
                );
            }
            for &(node, slice, atom) in &triples {
                let dest = NodeId(node).coord(dims);
                bond_pos_target[node as usize][slice as usize] += 1;
                bond_sends.push((self.owners[atom as usize], atom, dest, slice));
                bond_returns[node as usize][slice as usize].push(atom);
            }
        }

        // Force-accumulation targets (range-limited steps): HTIS returns
        // + bonded returns.
        let fpps = (capacity as usize).div_ceil(self.config.force_pack) as u64;
        let mut force_target_rl = vec![0u64; n_nodes];
        for c in dims.iter_coords() {
            let id = c.node_id(dims);
            // Every node my box's positions were imported to returns
            // packed force packets for my atoms.
            force_target_rl[id.index()] += self.decomp.import_boxes(c).len() as u64 * fpps;
        }
        // Bonded returns land at each atom's *current owner*, one
        // accumulate packet per (term slice, atom it touches).
        for returns in bond_returns.iter() {
            for slice_atoms in returns {
                for &atom in slice_atoms {
                    let home = self.owners[atom as usize];
                    force_target_rl[home.index()] += 1;
                }
            }
        }

        // Long-range extras: every importer additionally returns erf-
        // correction packets, and the local HTIS returns interpolation
        // packets.
        let mut force_target_lr_extra = vec![0u64; n_nodes];
        for c in dims.iter_coords() {
            let id = c.node_id(dims);
            force_target_lr_extra[id.index()] =
                self.decomp.import_boxes(c).len() as u64 * fpps + fpps;
        }

        let mut bond_sends_by_node = vec![Vec::new(); n_nodes];
        for &(sender, atom, dest, slice) in &bond_sends {
            bond_sends_by_node[sender.index()].push((atom, dest, slice));
        }
        self.plan = EpochPlan {
            capacity,
            htis_pos_target,
            bond_pos_target,
            force_target_rl,
            force_target_lr_extra,
            bond_sends,
            bond_sends_by_node,
            bond_returns,
        };
    }

    /// Current positions of a node's atoms with their ids.
    pub fn node_atoms(&self, node: NodeId) -> &[u32] {
        &self.local_atoms[node.index()]
    }

    /// Migrate atoms that left their relaxed boxes; returns the number
    /// moved. Rebuilds slots and the epoch plan.
    pub fn apply_migration(&mut self) -> u64 {
        let dims = self.decomp.dims;
        let mut moved = 0u64;
        for atom in 0..self.sys.atoms.len() {
            let p = self.sys.atoms[atom].pos;
            let owner = self.owners[atom].coord(dims);
            if !self.decomp.within_relaxed(p, owner, self.config.margin) {
                let new_owner = self.decomp.strict_owner(p).node_id(dims);
                if new_owner != self.owners[atom] {
                    self.owners[atom] = new_owner;
                    moved += 1;
                }
            }
        }
        // Rebuild local lists and slots.
        let n_nodes = dims.node_count() as usize;
        let mut local_atoms = vec![Vec::new(); n_nodes];
        for (atom, &o) in self.owners.iter().enumerate() {
            local_atoms[o.index()].push(atom as u32);
        }
        for (node, list) in local_atoms.iter().enumerate() {
            for (slot, &atom) in list.iter().enumerate() {
                self.slots[atom as usize] = slot as u32;
                debug_assert_eq!(self.owners[atom as usize].index(), node);
            }
        }
        self.local_atoms = local_atoms;
        self.last_migrated = moved;
        self.rebuild_plan();
        moved
    }

    /// Regenerate the bond program from current positions.
    pub fn regenerate_bond_program(&mut self) {
        let positions: Vec<Vec3> = self.sys.atoms.iter().map(|a| a.pos).collect();
        self.bond_program = BondProgram::generate(&self.sys, &self.decomp, &positions);
        self.bond_program_age = self.step_count;
        self.rebuild_plan();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_md::SystemBuilder;
    use anton_topo::TorusDims;

    fn small_state() -> MachineState {
        let sys = SystemBuilder::tiny(240, 22.0, 61).build();
        let mut md = MdParams::new(5.0, [16; 3]);
        md.dt = 0.5;
        let config = AntonConfig::new(md);
        MachineState::new(sys, config, TorusDims::new(2, 2, 2))
    }

    #[test]
    fn atoms_partition_across_nodes() {
        let st = small_state();
        let total: usize = st.local_atoms.iter().map(Vec::len).sum();
        assert_eq!(total, 240);
        for (node, list) in st.local_atoms.iter().enumerate() {
            for (slot, &atom) in list.iter().enumerate() {
                assert_eq!(st.owners[atom as usize].index(), node);
                assert_eq!(st.slots[atom as usize] as usize, slot);
            }
        }
    }

    #[test]
    fn plan_counts_are_consistent() {
        let st = small_state();
        let plan = &st.plan;
        assert!(plan.capacity as usize >= st.local_atoms.iter().map(Vec::len).max().unwrap());
        // Bond position targets equal the number of sends per (node, slice).
        let mut counted = vec![[0u64; 4]; 8];
        for &(_, _, dest, slice) in &plan.bond_sends {
            counted[dest.node_id(st.decomp.dims).index()][slice as usize] += 1;
        }
        assert_eq!(counted, plan.bond_pos_target.as_slice());
        // Force targets are positive everywhere (every box imports).
        assert!(plan.force_target_rl.iter().all(|&t| t > 0));
    }

    #[test]
    fn migration_moves_strays_and_rebuilds() {
        let mut st = small_state();
        // Teleport one atom across the box.
        let atom = st.local_atoms[0][0] as usize;
        st.sys.atoms[atom].pos = Vec3::new(20.9, 20.9, 20.9);
        let moved = st.apply_migration();
        assert_eq!(moved, 1);
        assert_eq!(
            st.owners[atom],
            st.decomp
                .strict_owner(Vec3::new(20.9, 20.9, 20.9))
                .node_id(st.decomp.dims)
        );
        // Slots consistent after rebuild.
        for (node, list) in st.local_atoms.iter().enumerate() {
            for (slot, &a) in list.iter().enumerate() {
                assert_eq!(st.owners[a as usize].index(), node);
                assert_eq!(st.slots[a as usize] as usize, slot);
            }
        }
    }

    #[test]
    fn regeneration_resets_age() {
        let mut st = small_state();
        st.step_count = 5000;
        st.regenerate_bond_program();
        assert_eq!(st.bond_program_age, 5000);
    }
}

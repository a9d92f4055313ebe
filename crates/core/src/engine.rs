//! The Anton MD engine: drives one DES run per time step, carrying
//! physics state between steps, and collects the timing measurements the
//! paper's tables and figures report.

use crate::program::MdNode;
use crate::state::{lock, AntonConfig, MachineState, StepTiming};
use anton_des::{SimDuration, SimTime, Tracer, TrackId};
use anton_md::integrate::verlet_first_half;
use anton_md::{ChemicalSystem, Vec3};
use anton_net::{Fabric, NetStats, ObsMode, ParSimulation, RunReport, StallReport};
use anton_obs::{FlightRecorder, MetricsRegistry};
use anton_topo::TorusDims;
use std::sync::{Arc, Mutex};

/// The machine + application. One instance simulates one MD run.
///
/// Every step runs on one slab: the node programs share the
/// [`MachineState`] (see [`MdNode`]), so the one-replica plan is the only
/// one on which their answer cannot depend on the shard plan.
pub struct AntonMdEngine {
    /// The shared machine state (systems, plans, per-step scratch).
    pub state: Arc<Mutex<MachineState>>,
    dims: TorusDims,
    /// Timing of every completed step (bootstrap excluded).
    pub timings: Vec<StepTiming>,
    /// Capture an activity trace on the next step.
    trace_next: bool,
    /// The trace and network stats of the last step.
    pub last_trace: Option<Tracer>,
    /// Traffic statistics of the last step.
    pub last_stats: Option<NetStats>,
    /// Traffic statistics accumulated over every DES run so far
    /// (bootstrap included). Snapshot it before a window of steps and
    /// call [`NetStats::diff`] afterwards for per-window numbers.
    pub stats_total: NetStats,
    /// Install a flight recorder on the next step's fabric.
    record_next: bool,
    /// The flight recorder of the last recorded step, with every event
    /// it captured (see [`AntonMdEngine::record_next_step`]).
    pub last_recording: Option<FlightRecorder>,
    /// Total potential energy components of the last force evaluation.
    pub last_energies: Energies,
}

/// Potential-energy components of one force evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Energies {
    /// Bonded-term energy, kcal/mol.
    pub bonded: f64,
    /// Lennard-Jones energy.
    pub lj: f64,
    /// Real-space screened Coulomb energy.
    pub coulomb_real: f64,
    /// Reciprocal-space energy minus self/exclusion corrections.
    pub long_range: f64,
}

impl Energies {
    /// Total potential energy.
    pub fn potential(&self) -> f64 {
        self.bonded + self.lj + self.coulomb_real + self.long_range
    }
}

impl AntonMdEngine {
    /// Build the engine and run the bootstrap force evaluation (the
    /// initial forces every velocity-Verlet scheme needs), entirely
    /// through the simulated machine.
    pub fn new(sys: ChemicalSystem, config: AntonConfig, dims: TorusDims) -> AntonMdEngine {
        let state = Arc::new(Mutex::new(MachineState::new(sys, config, dims)));
        let mut eng = AntonMdEngine {
            state,
            dims,
            timings: Vec::new(),
            trace_next: false,
            last_trace: None,
            last_stats: None,
            stats_total: NetStats::default(),
            record_next: false,
            last_recording: None,
            last_energies: Energies::default(),
        };
        eng.run_des_step(true);
        eng
    }

    /// Capture a Figure 13-style activity trace on the next step.
    pub fn trace_next_step(&mut self) {
        self.trace_next = true;
    }

    /// Record every packet lifecycle of the next step into a flight
    /// recorder, handed back in [`AntonMdEngine::last_recording`] once
    /// the step has run. Recording one step of a large system can
    /// produce millions of events.
    pub fn record_next_step(&mut self) {
        self.record_next = true;
    }

    /// Run one DES pass of the node programs over `fabric` on one slab.
    fn simulate(&self, fabric: Fabric) -> (ParSimulation<MdNode>, RunReport) {
        let mut sim = ParSimulation::one_slab(fabric, |_| MdNode::new(self.state.clone()));
        let report = sim.run_guarded(SimTime(u64::MAX / 2), 500_000_000);
        (sim, report)
    }

    /// Export cumulative traffic statistics, step counters, and the
    /// latest energies into a metrics registry (`net.*`, `md.*` keys).
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        self.stats_total.record_metrics(reg);
        reg.set_counter("md.steps", self.steps());
        reg.set_gauge("md.energy.bonded", self.last_energies.bonded);
        reg.set_gauge("md.energy.lj", self.last_energies.lj);
        reg.set_gauge("md.energy.coulomb_real", self.last_energies.coulomb_real);
        reg.set_gauge("md.energy.long_range", self.last_energies.long_range);
        reg.set_gauge("md.energy.potential", self.last_energies.potential());
        for t in &self.timings {
            reg.observe("md.step_total", t.total);
        }
    }

    /// Number of completed MD steps.
    pub fn steps(&self) -> u64 {
        lock(&self.state).step_count
    }

    /// The fabric timing model the engine's steps run under — what a
    /// causal-graph builder needs to reconstruct injection-port
    /// occupancy from a recorded step.
    pub fn timing(&self) -> anton_net::Timing {
        lock(&self.state).config.timing.clone()
    }

    /// Advance one time step; returns its timing record. Panics with the
    /// watchdog's diagnosis if the step stalls (lost packets under an
    /// aggressive fault plan); use [`AntonMdEngine::try_step`] to handle
    /// stalls programmatically.
    pub fn step(&mut self) -> StepTiming {
        match self.try_step() {
            Ok(t) => t,
            Err(stall) => panic!("MD step stalled:\n{stall}"),
        }
    }

    /// Advance one time step, reporting a stall instead of panicking.
    /// After an `Err` the machine state is mid-step and must not be
    /// stepped further; the report names every stuck counter.
    pub fn try_step(&mut self) -> Result<StepTiming, Box<StallReport>> {
        let timing = self.try_run_des_step(false)?;
        self.timings.push(timing.clone());
        Ok(timing)
    }

    /// Instantaneous temperature, K.
    pub fn temperature(&self) -> f64 {
        anton_md::integrate::instantaneous_temperature(&lock(&self.state).sys)
    }

    /// Current total kinetic energy, kcal/mol.
    pub fn kinetic_energy(&self) -> f64 {
        anton_md::integrate::total_kinetic(&lock(&self.state).sys)
    }

    /// Mean bond-destination hops given the current atom placement — the
    /// Figure 11 staleness metric.
    pub fn bond_staleness_hops(&self) -> f64 {
        let st = lock(&self.state);
        st.bond_program
            .mean_destination_hops(&st.owners, &st.decomp)
    }

    fn run_des_step(&mut self, bootstrap: bool) -> StepTiming {
        match self.try_run_des_step(bootstrap) {
            Ok(t) => t,
            Err(stall) => panic!("DES step stalled:\n{stall}"),
        }
    }

    fn try_run_des_step(&mut self, bootstrap: bool) -> Result<StepTiming, Box<StallReport>> {
        // ---- host-side pre-step ----
        let (thermostat, _long_range, migration) = {
            let mut st = lock(&self.state);
            let k = st.step_count + 1;
            let lr = bootstrap || k.is_multiple_of(st.config.md.long_range_interval as u64);
            // The global reduction runs when the thermostat or barostat
            // needs it (Figure 2: "kinetic energy / virial").
            let th_due = st
                .config
                .md
                .thermostat
                .map(|t| k.is_multiple_of(t.interval as u64))
                .unwrap_or(false);
            let ba_due = st
                .config
                .md
                .barostat
                .map(|b| k.is_multiple_of(b.interval as u64))
                .unwrap_or(false);
            let th = !bootstrap && (th_due || ba_due);
            let mig = !bootstrap
                && st.config.migration_interval > 0
                && k.is_multiple_of(st.config.migration_interval as u64);

            if !bootstrap {
                if let Some(interval) = st.config.regen_interval {
                    if k.saturating_sub(st.bond_program_age) > interval {
                        st.regenerate_bond_program();
                    }
                }
                // First half-kick + drift with the forces at the current
                // positions (identical math to the reference engine).
                let dt = st.config.md.dt;
                let forces = st.forces_prev.clone();
                verlet_first_half(&mut st.sys, &forces, dt);
            }

            let n_nodes = self.dims.node_count() as usize;
            let n_atoms = st.sys.atoms.len();
            st.scratch.reset(n_nodes, n_atoms);
            st.scratch.bootstrap = bootstrap;
            st.scratch.long_range = lr;
            st.scratch.thermostat = th;
            st.scratch.migration = mig;
            st.compute_time = vec![SimDuration::ZERO; n_nodes];

            if mig {
                // Snapshot leavers (for the FIFO traffic), then apply the
                // bookkeeping host-side so the plan is consistent before
                // position distribution.
                let mut leavers = vec![Vec::new(); n_nodes];
                for atom in 0..st.sys.atoms.len() {
                    let p = st.sys.atoms[atom].pos;
                    let owner = st.owners[atom].coord(self.dims);
                    if !st.decomp.within_relaxed(p, owner, st.config.margin) {
                        let new_owner = st.decomp.strict_owner(p).node_id(self.dims);
                        if new_owner != st.owners[atom] {
                            leavers[st.owners[atom].index()].push((atom as u32, new_owner));
                        }
                    }
                }
                st.apply_migration();
                st.scratch.leavers = leavers;
            }
            (th, lr, mig)
        };

        // ---- build the fabric for this step ----
        let mut fabric = {
            let st = lock(&self.state);
            let mut fabric =
                Fabric::with_faults(self.dims, st.config.timing.clone(), st.config.fault.clone());
            st.patterns.register(&mut fabric, thermostat, migration);
            fabric
        };
        if self.trace_next {
            fabric.enable_tracing();
            let n = self.dims.node_count() as u64;
            // 4 Tensilica slices and 4 geometry-core pipelines per node;
            // one HTIS per node.
            fabric.tracer.name_track(TrackId(6), "TS cores");
            fabric.tracer.set_track_units(TrackId(6), n * 4);
            fabric.tracer.name_track(TrackId(7), "GC cores");
            fabric.tracer.set_track_units(TrackId(7), n * 4);
            fabric.tracer.name_track(TrackId(8), "HTIS units");
            fabric.tracer.set_track_units(TrackId(8), n);
            self.trace_next = false;
        }
        let tracing = fabric.tracer.is_enabled();
        let recording = std::mem::take(&mut self.record_next);
        if recording {
            fabric.observe(ObsMode::Flight);
        }

        // ---- run the DES ----
        let (mut sim, report) = self.simulate(fabric);
        let replica = &mut sim.worlds_mut()[0].fabric;
        if recording {
            self.last_recording = replica.take_flight_recorder();
        }
        let stats = replica.stats.clone();
        self.stats_total.merge(&stats);
        self.last_stats = Some(stats);
        if let RunReport::Stalled(stall) = report {
            return Err(Box::new(stall));
        }
        if tracing {
            self.last_trace = Some(std::mem::replace(&mut replica.tracer, Tracer::disabled()));
        }

        // ---- host-side post-step ----
        let mut st = lock(&self.state);
        let n_nodes = self.dims.node_count() as usize;
        assert_eq!(
            st.scratch.nodes_done, n_nodes as u32,
            "not every node completed the step"
        );
        st.forces_prev = st.scratch.new_forces.clone();
        // Energies, summed in node order (deterministic).
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        let fresh_lr = st.scratch.long_range;
        let lr_energy = if fresh_lr {
            let e = sum(&st.scratch.e_long_range);
            st.last_lr_energy = e;
            e
        } else {
            st.last_lr_energy
        };
        self.last_energies = Energies {
            bonded: sum(&st.scratch.e_bonded),
            lj: sum(&st.scratch.e_lj),
            coulomb_real: sum(&st.scratch.e_coulomb),
            long_range: lr_energy,
        };
        if !bootstrap {
            st.step_count += 1;
        }
        // Barostat: the globally reduced virial arrived with the
        // thermostat reduction; apply the Berendsen box rescale and
        // rebuild the spatial bookkeeping (the box geometry changed).
        if let (Some(ba), Some((_, virial))) = (st.config.md.barostat, st.scratch.reduced) {
            if !bootstrap && st.step_count.is_multiple_of(ba.interval as u64) {
                let p = anton_md::integrate::instantaneous_pressure(&st.sys, virial);
                let dt = st.config.md.dt;
                anton_md::integrate::berendsen_pressure_rescale(
                    &mut st.sys,
                    p,
                    ba.target,
                    ba.tau,
                    ba.kappa,
                    dt,
                );
                let import_radius = st.config.md.cutoff + 2.0 * st.config.margin;
                let old_reach = (st.decomp.plate_reach(), st.decomp.tower_reach());
                st.decomp =
                    crate::decomp::Decomposition::new(self.dims, st.sys.pbox, import_radius);
                if (st.decomp.plate_reach(), st.decomp.tower_reach()) != old_reach {
                    // The import geometry changed: rebuild the multicast
                    // pattern families too.
                    st.patterns = crate::patterns::MdPatterns::allocate(&st.decomp, &st.grid_map);
                }
                st.apply_migration(); // re-own atoms under the new box
            }
        }

        let span = |a: Option<u64>, b: Option<u64>| match (a, b) {
            (Some(x), Some(y)) if y >= x => SimDuration::from_ps(y - x),
            _ => SimDuration::ZERO,
        };
        let timing = StepTiming {
            total: sim.now() - SimTime::ZERO,
            compute_per_node: st.compute_time.clone(),
            long_range: st.scratch.long_range,
            thermostat: st.scratch.thermostat,
            migration: st.scratch.migration,
            fft_span: span(st.scratch.fft_first_send, st.scratch.fft_last_pot),
            reduce_span: span(st.scratch.reduce_first, st.scratch.reduce_last),
            migration_span: span(Some(0), st.scratch.migration_last_sync),
        };
        Ok(timing)
    }

    /// Measure the FFT-based convolution in isolation (the Table 3 row
    /// and the 4 µs comparison point of \[47\]): pre-seed every node's
    /// charge brick from a host-side spread of the current positions,
    /// then run only the 6 communication passes of the dimension-ordered
    /// FFT until every HTIS holds its halo potentials.
    pub fn measure_fft_convolution(&mut self) -> anton_des::SimDuration {
        {
            let mut st = lock(&self.state);
            let n_nodes = self.dims.node_count() as usize;
            let n_atoms = st.sys.atoms.len();
            st.scratch.reset(n_nodes, n_atoms);
            st.scratch.fft_only = true;
            st.compute_time = vec![SimDuration::ZERO; n_nodes];
            // Host-side spread (the physics the HTIS units would have
            // produced), quantized through the same fixed-point codec.
            let spread = anton_md::grid::SpreadParams::for_ewald_sigma(st.config.md.ewald_sigma);
            let mut grid = anton_md::grid::ScalarGrid::zeros(st.config.md.grid, st.sys.pbox);
            let positions: Vec<Vec3> = st.sys.atoms.iter().map(|a| a.pos).collect();
            let charges: Vec<f64> = st.sys.atoms.iter().map(|a| a.charge).collect();
            anton_md::grid::spread_charges(&mut grid, &positions, &charges, spread);
            let map = st.grid_map;
            let b = map.brick();
            for c in self.dims.iter_coords() {
                let node = c.node_id(self.dims);
                let origin = [
                    c.x as usize * b[0],
                    c.y as usize * b[1],
                    c.z as usize * b[2],
                ];
                let mut vals = Vec::with_capacity(b[0] * b[1] * b[2]);
                for z in 0..b[2] {
                    for y in 0..b[1] {
                        for x in 0..b[0] {
                            let g = [origin[0] + x, origin[1] + y, origin[2] + z];
                            let idx = g[0] + map.grid[0] * (g[1] + map.grid[1] * g[2]);
                            let q = anton_md::fixed::encode(
                                grid.data[idx],
                                anton_md::fixed::CHARGE_SCALE,
                            );
                            vals.push(anton_md::fixed::decode(q, anton_md::fixed::CHARGE_SCALE));
                        }
                    }
                }
                st.scratch.brick_charges[node.index()] = vals;
            }
        }
        let fabric = {
            let st = lock(&self.state);
            let mut fabric =
                Fabric::with_faults(self.dims, st.config.timing.clone(), st.config.fault.clone());
            st.patterns.register(&mut fabric, false, false);
            fabric
        };
        let (sim, report) = self.simulate(fabric);
        if let RunReport::Stalled(stall) = report {
            panic!("FFT convolution stalled:\n{stall}");
        }
        let st = lock(&self.state);
        assert_eq!(
            st.scratch.nodes_done,
            self.dims.node_count(),
            "all nodes finish"
        );
        sim.now() - SimTime::ZERO
    }

    /// The system snapshot (positions, velocities).
    pub fn system(&self) -> ChemicalSystem {
        lock(&self.state).sys.clone()
    }

    /// Forces at the current positions (as decoded from the accumulation
    /// memories in the last step).
    pub fn current_forces(&self) -> Vec<Vec3> {
        lock(&self.state).forces_prev.clone()
    }
}

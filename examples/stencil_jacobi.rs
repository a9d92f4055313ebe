//! §VI generality demo: counted remote writes beyond molecular dynamics.
//!
//! "Counted remote writes provide a natural way to represent data
//! dependencies in applications parallelized using domain decomposition,
//! where a processor associated with a subdomain must wait to receive
//! data from other processors associated with neighboring subdomains
//! before it can begin a given phase of computation."
//!
//! This example solves the 3D Laplace equation by Jacobi iteration on
//! the simulated machine: each node owns a subdomain brick, pushes its
//! boundary faces to the six face neighbors as counted remote writes,
//! and sweeps as soon as its halo counter fires — no barriers, no
//! receiver-side handshakes, exactly the paper's recipe. The numerics
//! are real; the solve converges and matches a serial reference.
//!
//! ```sh
//! cargo run --release --example stencil_jacobi
//! ```

use anton::des::{SimDuration, SimTime};
use anton::net::{
    drive, ClientAddr, ClientKind, CounterId, Ctx, Fabric, NodeProgram, Packet, Payload, ProgEvent,
    RunConfig,
};
use anton::topo::{face_neighbors, LinkDir, NodeId, TorusDims};

/// Subdomain edge (points per node per axis).
const B: usize = 8;
/// Jacobi sweeps.
const SWEEPS: u32 = 30;
/// Per-point update cost on a geometry core (ns) — same scale as the MD
/// cost model's per-element arithmetic.
const UPDATE_NS: f64 = 0.5;

/// Global grid: machine dims × B, with fixed boundary values on the
/// global z=0 plane (hot) and z=max (cold); periodic in x, y is replaced
/// by fixed cold walls for a well-posed Dirichlet problem, so the torus
/// wrap links simply carry the wall values.
struct JacobiNode {
    /// Current subdomain values, (B+2)³ with halo.
    cells: Vec<f64>,
    /// Sweeps completed.
    sweep: u32,
    /// Completion time.
    done: Option<SimTime>,
}

fn idx(x: usize, y: usize, z: usize) -> usize {
    x + (B + 2) * (y + (B + 2) * z)
}

fn slice0(node: NodeId) -> ClientAddr {
    ClientAddr::new(node, ClientKind::Slice(0))
}

/// Global boundary value beyond a z wall: hot floor below, cold
/// ceiling above.
fn wall_value(gz: i64, _nz_points: i64) -> f64 {
    if gz < 0 {
        100.0 // hot floor
    } else {
        0.0 // cold ceiling
    }
}

impl JacobiNode {
    fn face_payload(&self, link: LinkDir) -> Vec<f64> {
        // The face of our interior adjacent to `link`, row-major.
        let cells = &self.cells;
        let mut out = Vec::with_capacity(B * B);
        let fixed = |d: anton::topo::Dir| match d {
            anton::topo::Dir::Minus => 1,
            anton::topo::Dir::Plus => B,
        };
        for b in 0..B {
            for a in 0..B {
                let (x, y, z) = match link.dim {
                    anton::topo::Dim::X => (fixed(link.dir), a + 1, b + 1),
                    anton::topo::Dim::Y => (a + 1, fixed(link.dir), b + 1),
                    anton::topo::Dim::Z => (a + 1, b + 1, fixed(link.dir)),
                };
                out.push(cells[idx(x, y, z)]);
            }
        }
        out
    }

    /// Push all six faces (counted remote writes; B²=64 values → 512 B →
    /// two packets per face), then arm the halo counter.
    fn exchange(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let dims = ctx.dims();
        let me = node.coord(dims);
        let neighbors = face_neighbors(me, dims);
        let sweep = self.sweep;
        let counter = CounterId((sweep % 2) as u16);
        // Expect 2 packets per adjacent neighbor face.
        let expected: u64 = neighbors.len() as u64 * 2;
        ctx.watch_counter(slice0(node), counter, expected);
        for (link, nb) in neighbors {
            let face = self.face_payload(link);
            // The receiver stores it under the direction it arrives from.
            let from = link.reverse();
            for (half, chunk) in face.chunks(B * B / 2).enumerate() {
                let pkt = Packet::write(
                    slice0(node),
                    slice0(nb.node_id(dims)),
                    0x1000
                        + (sweep % 2) as u64 * 0x800
                        + from.index() as u64 * 0x100
                        + half as u64 * 0x80,
                    Payload::F64s(chunk.to_vec()),
                )
                .with_counter(counter);
                ctx.send(pkt);
            }
        }
    }

    /// Halo complete: load neighbor faces, run one Jacobi sweep over the
    /// interior, then either exchange again or finish.
    fn sweep(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let dims = ctx.dims();
        let me = node.coord(dims);
        let sweep_no = self.sweep;
        // 1. Install received halos. The +X neighbor addressed its face
        //    to our X+ halo slot (it sent with its own X− link and tagged
        //    the slot with that link's reverse), so we read slot `link`.
        for (link, _) in face_neighbors(me, dims) {
            let from = link;
            let mut face = Vec::with_capacity(B * B);
            for half in 0..2u64 {
                let addr = 0x1000
                    + (sweep_no % 2) as u64 * 0x800
                    + from.index() as u64 * 0x100
                    + half * 0x80;
                match ctx.mem_read(slice0(node), addr) {
                    Some(Payload::F64s(v)) => face.extend_from_slice(v),
                    other => panic!("missing halo face: {other:?}"),
                }
            }
            let cells = &mut self.cells;
            // `link` points toward the neighbor; its face lands in our
            // halo layer on that side.
            let side = match link.dir {
                anton::topo::Dir::Plus => B + 1,
                anton::topo::Dir::Minus => 0,
            };
            let mut it = face.into_iter();
            for b in 0..B {
                for a in 0..B {
                    let (x, y, z) = match link.dim {
                        anton::topo::Dim::X => (side, a + 1, b + 1),
                        anton::topo::Dim::Y => (a + 1, side, b + 1),
                        anton::topo::Dim::Z => (a + 1, b + 1, side),
                    };
                    cells[idx(x, y, z)] = it.next().expect("face size");
                }
            }
        }
        // 2. Overwrite wrap-link halos on the global z walls with the
        //    Dirichlet values (the global problem is a slab).
        {
            let nz_points = (dims.nz as usize * B) as i64;
            let cells = &mut self.cells;
            if me.z == 0 {
                for y in 0..B + 2 {
                    for x in 0..B + 2 {
                        cells[idx(x, y, 0)] = wall_value(-1, nz_points);
                    }
                }
            }
            if me.z == dims.nz - 1 {
                for y in 0..B + 2 {
                    for x in 0..B + 2 {
                        cells[idx(x, y, B + 1)] = wall_value(nz_points, nz_points);
                    }
                }
            }
        }
        // 3. Jacobi sweep (real arithmetic) + modeled compute time.
        {
            let old = self.cells.clone();
            let cells = &mut self.cells;
            for z in 1..=B {
                for y in 1..=B {
                    for x in 1..=B {
                        cells[idx(x, y, z)] = (old[idx(x - 1, y, z)]
                            + old[idx(x + 1, y, z)]
                            + old[idx(x, y - 1, z)]
                            + old[idx(x, y + 1, z)]
                            + old[idx(x, y, z - 1)]
                            + old[idx(x, y, z + 1)])
                            / 6.0;
                    }
                }
            }
            self.sweep += 1;
        }
        let cost = SimDuration::from_ns_f64(UPDATE_NS * (B * B * B) as f64);
        ctx.compute(
            node,
            ClientKind::Slice(0),
            anton::core::TRACK_GC,
            cost,
            1,
            "jacobi",
        );
    }
}

impl NodeProgram for JacobiNode {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => self.exchange(node, ctx),
            ProgEvent::CounterReached { counter, .. } => {
                // Re-arm happens in exchange(); counters alternate by
                // sweep parity so in-flight faces of sweep k+1 can't
                // trip sweep k's counter.
                let mine = slice0(node);
                ctx.reset_counter(mine, counter);
                self.sweep(node, ctx);
            }
            ProgEvent::Timer { .. } => {
                if self.sweep >= SWEEPS {
                    self.done = Some(ctx.now());
                } else {
                    self.exchange(node, ctx);
                }
            }
            _ => unreachable!(),
        }
    }
}

fn main() {
    let dims = TorusDims::new(4, 4, 4);
    let nodes = drive(
        &RunConfig::default(),
        |_| Fabric::new(dims),
        |_| JacobiNode {
            cells: vec![0.0; (B + 2) * (B + 2) * (B + 2)],
            sweep: 0,
            done: None,
        },
        u64::MAX,
    )
    .unwrap_or_else(|stall| panic!("Jacobi solve stalled:\n{stall}"))
    .programs;

    let finish = nodes
        .iter()
        .map(|p| p.done.expect("all nodes finish"))
        .max()
        .expect("nonempty");
    println!(
        "3D Jacobi on a {}x{}x{} machine ({} points/node): {} sweeps in {:.2} us",
        dims.nx,
        dims.ny,
        dims.nz,
        B * B * B,
        SWEEPS,
        (finish - SimTime::ZERO).as_us_f64()
    );
    println!(
        "  = {:.0} ns per sweep including the halo exchange — the counted-\n\
         remote-write pattern of the paper's Discussion (§VI), no barriers.",
        (finish - SimTime::ZERO).as_ns_f64() / SWEEPS as f64
    );

    // Verify against a serial Jacobi of the same global slab problem.
    let serial = serial_reference(dims);
    let mut worst = 0.0f64;
    for c in dims.iter_coords() {
        let cells = &nodes[c.node_id(dims).index()].cells;
        for z in 1..=B {
            for y in 1..=B {
                for x in 1..=B {
                    let gx = c.x as usize * B + x - 1;
                    let gy = c.y as usize * B + y - 1;
                    let gz = c.z as usize * B + z - 1;
                    let s = serial[gx + dims.nx as usize * B * (gy + dims.ny as usize * B * gz)];
                    worst = worst.max((cells[idx(x, y, z)] - s).abs());
                }
            }
        }
    }
    println!("  max |distributed - serial| after {SWEEPS} sweeps: {worst:.2e}");
    assert!(
        worst < 1e-9,
        "distributed Jacobi must match the serial solve"
    );
    println!("  distributed result matches the serial reference. ✓");
}

/// Serial Jacobi on the equivalent global grid (periodic x/y, Dirichlet
/// z walls).
fn serial_reference(dims: TorusDims) -> Vec<f64> {
    let (nx, ny, nz) = (
        dims.nx as usize * B,
        dims.ny as usize * B,
        dims.nz as usize * B,
    );
    let at = |v: &Vec<f64>, x: i64, y: i64, z: i64| -> f64 {
        if z < 0 {
            return 100.0;
        }
        if z >= nz as i64 {
            return 0.0;
        }
        let xw = x.rem_euclid(nx as i64) as usize;
        let yw = y.rem_euclid(ny as i64) as usize;
        v[xw + nx * (yw + ny * z as usize)]
    };
    let mut cur = vec![0.0; nx * ny * nz];
    for _ in 0..SWEEPS {
        let mut next = vec![0.0; nx * ny * nz];
        for z in 0..nz as i64 {
            for y in 0..ny as i64 {
                for x in 0..nx as i64 {
                    next[x as usize + nx * (y as usize + ny * z as usize)] =
                        (at(&cur, x - 1, y, z)
                            + at(&cur, x + 1, y, z)
                            + at(&cur, x, y - 1, z)
                            + at(&cur, x, y + 1, z)
                            + at(&cur, x, y, z - 1)
                            + at(&cur, x, y, z + 1))
                            / 6.0;
                }
            }
        }
        cur = next;
    }
    cur
}

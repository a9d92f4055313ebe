//! Packets and network-client addressing.
//!
//! Three kinds of clients hang off each node's on-chip ring (§III):
//! four processing slices, one HTIS, and two accumulation memories.
//! Packets are one-sided writes (or accumulations, or FIFO messages)
//! addressed to a specific client's local memory, optionally labeled with
//! a synchronization-counter id (§III.B, counted remote writes).

use crate::timing::MAX_PAYLOAD_BYTES;
use anton_obs::PacketTrail;
use anton_topo::NodeId;

/// Which client on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ClientKind {
    /// Processing slice 0–3 (each: one Tensilica core + two geometry
    /// cores, §III).
    Slice(u8),
    /// The high-throughput interaction subsystem.
    Htis,
    /// Accumulation memory 0 or 1.
    Accum(u8),
}

impl ClientKind {
    /// All seven clients of a node, in dense-index order.
    pub const ALL: [ClientKind; 7] = [
        ClientKind::Slice(0),
        ClientKind::Slice(1),
        ClientKind::Slice(2),
        ClientKind::Slice(3),
        ClientKind::Htis,
        ClientKind::Accum(0),
        ClientKind::Accum(1),
    ];

    /// Dense index 0..7.
    pub fn index(self) -> usize {
        match self {
            ClientKind::Slice(i) => {
                assert!(i < 4, "slice index out of range");
                i as usize
            }
            ClientKind::Htis => 4,
            ClientKind::Accum(i) => {
                assert!(i < 2, "accumulation memory index out of range");
                5 + i as usize
            }
        }
    }

    /// Inverse of [`ClientKind::index`].
    pub fn from_index(i: usize) -> ClientKind {
        ClientKind::ALL[i]
    }

    /// Whether this client can inject packets (§III.A: accumulation
    /// memories cannot send).
    pub fn can_send(self) -> bool {
        !matches!(self, ClientKind::Accum(_))
    }

    /// Whether counter polls from a slice reach this client's counters
    /// without crossing the ring (§III.B: slices and HTIS poll locally;
    /// accumulation-memory counters are polled across the on-chip
    /// network).
    pub fn local_poll(self) -> bool {
        !matches!(self, ClientKind::Accum(_))
    }
}

/// Full client address: node + client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientAddr {
    /// The node.
    pub node: NodeId,
    /// The client on that node.
    pub client: ClientKind,
}

impl ClientAddr {
    /// Pair a node with one of its clients.
    pub fn new(node: NodeId, client: ClientKind) -> ClientAddr {
        ClientAddr { node, client }
    }
}

/// Identifies one synchronization counter within a client (§III.B:
/// "every network client contains a set of synchronization counters").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CounterId(pub u16);

/// Counter id carried by packets whose receiving client resolves the
/// actual counter from the packet's *source node* (the HTIS buffer
/// mechanism, §IV.B.1: "The HTIS organizes arriving packets into buffers
/// corresponding to the node of origin"; each buffer has its own
/// counter). The mapping is programmed per client via
/// `Fabric::set_source_counter_map`.
pub const COUNTER_BY_SOURCE: CounterId = CounterId(63);

/// Number of synchronization counters per client. The paper doesn't
/// publish the exact count; MD needs a handful per phase (per-dimension
/// FFT counters, HTIS position/potential counters, force counters…), so
/// 64 is comfortably generous.
pub const COUNTERS_PER_CLIENT: usize = 64;

/// A precomputed multicast pattern id (≤256 per node, §III.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternId(pub u16);

/// What the packet does on arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Write payload to the target client's local memory at `addr`.
    Write,
    /// Add payload (4-byte signed quantities) to the accumulation memory
    /// at `addr` (§III.A: accumulation packets). Target must be an
    /// accumulation memory.
    Accumulate,
    /// Append to the target slice's hardware message FIFO (§III.C).
    /// `addr` is ignored.
    Fifo,
}

/// Logical packet contents. The wire size is tracked separately in
/// [`Packet::payload_bytes`]; `data` carries the real values so the
/// reproduction computes genuine physics through the network.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// No logical contents.
    Empty,
    /// Raw little-endian bytes.
    Bytes(Vec<u8>),
    /// 64-bit floats (positions, potentials…). 8 wire bytes each.
    F64s(Vec<f64>),
    /// 32-bit fixed-point quantities (forces, charges for accumulation).
    /// 4 wire bytes each.
    I32s(Vec<i32>),
    /// An application-defined token carrying no modeled bytes of its own
    /// (used for control messages whose wire size is set explicitly).
    Token(u64),
}

impl Payload {
    /// Natural wire size of the payload data in bytes.
    pub fn natural_bytes(&self) -> u32 {
        match self {
            Payload::Empty | Payload::Token(_) => 0,
            Payload::Bytes(b) => b.len() as u32,
            Payload::F64s(v) => (v.len() * 8) as u32,
            Payload::I32s(v) => (v.len() * 4) as u32,
        }
    }
}

/// Where a packet goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destination {
    /// One client on one node.
    Unicast(ClientAddr),
    /// A precomputed multicast pattern; on every delivery node the packet
    /// lands at client `client` (hardware looks up local clients in the
    /// pattern table; our MD mappings always target the same client kind
    /// on every member node, which is how Anton's software used it too).
    Multicast {
        /// The precomputed pattern to follow.
        pattern: PatternId,
        /// The client kind receiving the packet on every member node.
        client: ClientKind,
    },
}

/// A network packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Flight-event identity, assigned densely by the fabric at
    /// injection (constructors leave it 0). Multicast copies keep their
    /// original's id, which is how the flight record correlates a tree's
    /// deliveries.
    pub uid: u64,
    /// Sending client.
    pub src: ClientAddr,
    /// Where the packet goes.
    pub dest: Destination,
    /// What it does on arrival.
    pub kind: PacketKind,
    /// Target address within the destination client's local memory.
    pub addr: u64,
    /// Wire payload size in bytes (0–256). Usually
    /// `payload.natural_bytes()`, but control packets may model a size
    /// explicitly.
    pub payload_bytes: u32,
    /// The logical contents.
    pub payload: Payload,
    /// Synchronization counter to increment on arrival, if any.
    pub counter: Option<CounterId>,
    /// §III.A: header flag selecting guaranteed in-order delivery between
    /// fixed source–destination pairs. On the healthy fabric
    /// (deterministic dimension-ordered routes over FIFO links) delivery
    /// is always in order and the flag is honored trivially; under
    /// runtime fault recovery a rerouted packet can overtake, so the
    /// fabric assigns [`Packet::order_seq`] and reassembles at the
    /// destination.
    pub in_order: bool,
    /// Application tag dispatched back to the receiving node program.
    pub tag: u64,
    /// End-to-end payload integrity checksum, computed at construction
    /// ([`crate::fault::payload_crc`]) and verified on delivery. It is the
    /// only CRC the simulator computes: link traversals compute none, as
    /// each one's drop or corruption is drawn from the seeded fault plan
    /// and its retry charged to the link reservation.
    pub crc: u32,
    /// Source route installed by the fabric when permanent link failures
    /// are active: the precomputed surviving path and the index of the
    /// next step to take. `None` routes dimension-ordered per hop, as the
    /// healthy hardware does.
    pub route: Option<SourceRoute>,
    /// Per-(source client, destination client) sequence number, assigned
    /// at injection for in-order packets when runtime fault recovery is
    /// enabled. The destination holds packets that arrive ahead of the
    /// sequence and applies them in order.
    pub order_seq: Option<u64>,
    /// Recovery re-injections consumed so far, bounded by
    /// [`RecoveryConfig::max_reinjects`](crate::recovery::RecoveryConfig::max_reinjects).
    pub reinjects: u32,
    /// The packet's lifecycle so far, for the stream observer: set by
    /// the fabric at injection only when one is installed (unicast
    /// packets only), and handed to the observer where the packet ends.
    pub trail: Option<Box<PacketTrail>>,
}

/// A packet-carried route around permanently dead links (fault runs
/// only; healthy fabrics never set this).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceRoute {
    /// The full step sequence, shared between clones of the packet.
    pub steps: std::sync::Arc<Vec<anton_topo::LinkDir>>,
    /// Index of the next step to take.
    pub next: u32,
}

impl Packet {
    /// A write packet with the payload's natural size.
    pub fn write(src: ClientAddr, dst: ClientAddr, addr: u64, payload: Payload) -> Packet {
        let bytes = payload.natural_bytes();
        assert!(bytes <= MAX_PAYLOAD_BYTES, "payload exceeds 256 bytes");
        Packet {
            uid: 0,
            src,
            dest: Destination::Unicast(dst),
            kind: PacketKind::Write,
            addr,
            payload_bytes: bytes,
            crc: crate::fault::payload_crc(&payload),
            payload,
            counter: None,
            in_order: false,
            tag: 0,
            route: None,
            order_seq: None,
            reinjects: 0,
            trail: None,
        }
    }

    /// An accumulation packet (target must be an accumulation memory).
    pub fn accumulate(src: ClientAddr, dst: ClientAddr, addr: u64, values: Vec<i32>) -> Packet {
        assert!(
            matches!(dst.client, ClientKind::Accum(_)),
            "accumulate packets must target an accumulation memory"
        );
        let payload = Payload::I32s(values);
        let bytes = payload.natural_bytes();
        assert!(bytes <= MAX_PAYLOAD_BYTES, "payload exceeds 256 bytes");
        Packet {
            uid: 0,
            src,
            dest: Destination::Unicast(dst),
            kind: PacketKind::Accumulate,
            addr,
            payload_bytes: bytes,
            crc: crate::fault::payload_crc(&payload),
            payload,
            counter: None,
            in_order: false,
            tag: 0,
            route: None,
            order_seq: None,
            reinjects: 0,
            trail: None,
        }
    }

    /// A message destined for the target slice's hardware FIFO.
    pub fn fifo(src: ClientAddr, dst: ClientAddr, payload: Payload) -> Packet {
        let bytes = payload.natural_bytes();
        assert!(bytes <= MAX_PAYLOAD_BYTES, "payload exceeds 256 bytes");
        Packet {
            uid: 0,
            src,
            dest: Destination::Unicast(dst),
            kind: PacketKind::Fifo,
            addr: 0,
            payload_bytes: bytes,
            crc: crate::fault::payload_crc(&payload),
            payload,
            counter: None,
            in_order: false,
            tag: 0,
            route: None,
            order_seq: None,
            reinjects: 0,
            trail: None,
        }
    }

    /// Label with a synchronization counter (builder style).
    pub fn with_counter(mut self, c: CounterId) -> Packet {
        self.counter = Some(c);
        self
    }

    /// Set the in-order flag (builder style).
    pub fn with_in_order(mut self) -> Packet {
        self.in_order = true;
        self
    }

    /// Set the application tag (builder style).
    pub fn with_tag(mut self, tag: u64) -> Packet {
        self.tag = tag;
        self
    }

    /// Override the modeled wire payload size (builder style). Used by
    /// microbenchmarks that sweep message size without materializing data.
    pub fn with_payload_bytes(mut self, bytes: u32) -> Packet {
        assert!(bytes <= MAX_PAYLOAD_BYTES, "payload exceeds 256 bytes");
        self.payload_bytes = bytes;
        self
    }

    /// Convert to a multicast packet using `pattern`.
    pub fn into_multicast(mut self, pattern: PatternId, client: ClientKind) -> Packet {
        self.dest = Destination::Multicast { pattern, client };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_topo::NodeId;

    fn addr(n: u32, c: ClientKind) -> ClientAddr {
        ClientAddr::new(NodeId(n), c)
    }

    #[test]
    fn client_kind_index_round_trips() {
        for (i, &k) in ClientKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(ClientKind::from_index(i), k);
        }
    }

    #[test]
    fn accumulation_memories_cannot_send() {
        assert!(!ClientKind::Accum(0).can_send());
        assert!(!ClientKind::Accum(1).local_poll());
        assert!(ClientKind::Slice(2).can_send());
        assert!(ClientKind::Htis.can_send());
        assert!(ClientKind::Htis.local_poll());
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(Payload::Empty.natural_bytes(), 0);
        assert_eq!(Payload::F64s(vec![0.0; 3]).natural_bytes(), 24);
        assert_eq!(Payload::I32s(vec![0; 5]).natural_bytes(), 20);
        assert_eq!(Payload::Bytes(vec![0; 7]).natural_bytes(), 7);
        assert_eq!(Payload::Token(9).natural_bytes(), 0);
    }

    #[test]
    fn write_builder() {
        let p = Packet::write(
            addr(0, ClientKind::Slice(0)),
            addr(1, ClientKind::Slice(1)),
            0x100,
            Payload::F64s(vec![1.0, 2.0, 3.0]),
        )
        .with_counter(CounterId(5))
        .with_in_order()
        .with_tag(77);
        assert_eq!(p.payload_bytes, 24);
        assert_eq!(p.counter, Some(CounterId(5)));
        assert!(p.in_order);
        assert_eq!(p.tag, 77);
    }

    #[test]
    #[should_panic(expected = "accumulation memory")]
    fn accumulate_must_target_accum() {
        Packet::accumulate(
            addr(0, ClientKind::Slice(0)),
            addr(1, ClientKind::Slice(1)),
            0,
            vec![1],
        );
    }

    #[test]
    #[should_panic(expected = "exceeds 256")]
    fn oversized_payload_panics() {
        Packet::write(
            addr(0, ClientKind::Slice(0)),
            addr(1, ClientKind::Slice(1)),
            0,
            Payload::F64s(vec![0.0; 40]),
        );
    }
}

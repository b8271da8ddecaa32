//! Flit-level 2-D mesh simulation: input-buffered wormhole routers, X-Y
//! routing, tree multicast, one global-buffer injection point.
//!
//! The mesh is simulated synchronously, one cycle at a time. Every router
//! has five bidirectional ports (E, W, N, S, Local) plus — at the
//! global-buffer position — an injection port fed by the GB packet queue.
//! A packet's head flit claims all output ports on its (possibly forking)
//! route; body flits stream behind it; the tail releases the claim
//! (wormhole switching). Multicast routes follow the unique X-Y path to
//! each destination, so a flit copy forks exactly at the branch routers.
//!
//! # Data layout
//!
//! All input ports live in one flat `Vec` indexed `node * 6 + dir`; a
//! precomputed table maps each output port to the input port it feeds at
//! the neighbour, and back. A port's flits sit in a fixed ring of its own,
//! a slice of one flat `Vec` with `buffer_depth` slots per port (rounded up
//! to a power of two): the queue first, then the in-flight flits in arrival
//! order. The ring never overflows, because nothing enters a port holding
//! `buffer_depth` flits: a link's upstream forwards only while the port's
//! queued plus in-flight flits are below the depth, and a source injects
//! under the same bound. A flit is one word, its packet and its head and
//! tail bits. Every hop takes the same cycles, so the order flits are sent
//! in is the order they arrive in: one FIFO of `(arrival cycle, port)`
//! holds all in-flight flits, and an arrival only moves a port's queue
//! counter past its next flit. A wormhole grant is `(owner packet,
//! output-port mask)`, and each node keeps the union of its grants. A packet's route is
//! one output-port mask per `(packet, node)`, computed once per run by
//! walking the X-Y path to each destination. Bitsets over the ports hold the
//! ones with a non-empty queue, the ones with a non-empty in-flight
//! pipeline and the asleep ones (below), so a cycle visits only active
//! ports, and counters of outstanding ejections and queued packets make the
//! termination test O(1). A step allocates nothing.
//!
//! # Blocked ports
//!
//! A queued port whose front flit cannot move waits either for room in a
//! full downstream port or for another packet's grant on one of its outputs
//! to be released. Only a pop from that downstream port makes room, and
//! only a tail flit releases a grant, so such a port goes to sleep, noting
//! the outputs it waits for, and the allocation skips it until a pop or a
//! release at one of them wakes it. A blocked port claims nothing, so
//! skipping it changes no other port's outcome; a head blocked only by a
//! claim made earlier in the same cycle and not held stays awake. Sleep
//! changes only which ports a step looks at, never its outcome, so the
//! asleep set is no part of the canonical state below, and a port asleep
//! at a steady-state jump is still blocked after it.
//!
//! # Steady state
//!
//! While long packets stream, the mesh settles into a pattern that repeats
//! exactly every few priority rotations, and stepping through it cycle by
//! cycle is most of a large layer's host time. The run jumps over those
//! repeats instead; [`MeshSim::step`] stays the only code that moves flits.
//!
//! A step reads the state only through the *canonical state*: every port's
//! queue and in-flight pipeline (arrival times counted from `now`), the
//! grants, owners and per-node grant unions, the source list, the injection
//! queues' packets (and so `queued_packets`) and the rotating priority
//! `now % 6`. Two things are left out. The first is the front packets'
//! flits left to inject, which a step reads only to mark the injected flit a head
//! (`left == flits`) or a tail (`left == 1`, after which the queue pops).
//! The second is `outstanding`, which a step only decrements. So from equal
//! canonical states, two runs take equal steps as long as they inject the
//! same kind of flits (head, body, tail) at the same steps.
//!
//! While a source's front packet holds at least [`JUMP_MIN_FLITS`] flits to
//! inject, the run probes on every multiple of 6 cycles, so all probes see
//! the same rotating priority. Each probe taken since the last head or tail
//! injection is an *anchor*: its canonical state and, separately, each
//! source's `left` and `outstanding`. The run keeps the last [`ANCHORS`] of
//! them in a ring and compares the live canonical state with them, newest
//! first, by exact equality; a head or tail injection empties the ring. The
//! comparison visits the live state word by word against the anchor's
//! encoding and stops at the first difference, so a state that has not
//! settled costs a few words per anchor. A match with an anchor `P` cycles
//! old means, since no head or tail was injected in between:
//!
//! - the window of `P` steps starting from the live state repeats the one
//!   starting from the anchor, step for step, while it again injects only
//!   body flits;
//! - in one window, source `s` injects `d_s` body flits (its `left` fell by
//!   `d_s`) and `e` flits eject (`outstanding` fell by `e`).
//!
//! A source with `d_s > 0` whose `left` is `L` at the match injects, in the
//! `j`-th further window, with `left` running from `L − (j − 1)·d_s` down to
//! `L − j·d_s + 1`. That is below the packet's length, so never a head, and
//! above 1, so never a tail, for every `j ≤ k = ⌊(L − 1)/d_s⌋`. By induction
//! over the steps, the next `k·P` cycles (`k` the minimum over the sources
//! with `d_s > 0`) repeat the window `k` times. The run applies them at once:
//! `left −= k·d_s`, `outstanding −= k·e`, and `now` and every pipeline
//! arrival move `k·P` later. That is exactly the state stepping would have
//! reached; no source is left below one flit, so `done()` could not have
//! held inside the jumped cycles, and the cycle-cap check after the jump
//! returns what it would have returned. A match with no `d_s > 0` (nothing
//! injected, so nothing can eject either) never jumps, and such a run steps
//! on to the cap as before. Any anchor taken after the last event is a valid
//! one, so the ring lets a run jump as soon as the mesh has settled rather
//! than only from the first probe after the event, which usually comes
//! before it settles. The anchors' buffers live in [`MeshSim`] and are
//! reused, so a step still allocates nothing, and a packet set without a
//! packet of [`JUMP_MIN_FLITS`] flits never probes.
//!
//! # Contract
//!
//! Each cycle runs the same three phases in the same order as the
//! straightforward simulator it replaced: arrivals, then one injection per
//! source, then switch allocation per node in node order with the rotating
//! `now % 6` input-port priority. Downstream occupancy counts queued plus
//! in-flight flits, including those pushed earlier in the same cycle;
//! grants last until the tail flit; a multicast head moves only when every
//! branch is free; the cycle cap is unchanged. Steady-state jumps skip only
//! cycles whose outcome is proven above, and sleep only visits to ports that
//! cannot move. The cycle counts are identical:
//! the replaced simulator is kept verbatim as a test-only reference module,
//! and seeded tests compare the two on random packet sets, short ones, ones
//! long enough to jump and ones shaped like the suites' transfer sets.

use std::collections::VecDeque;
use std::ops::ControlFlow;

#[cfg(test)]
mod reference;

/// Static mesh parameters (a subset of [`cosa_spec::NocParams`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshConfig {
    /// Mesh width.
    pub x: usize,
    /// Mesh height.
    pub y: usize,
    /// Router pipeline + link traversal latency per hop, in cycles.
    pub hop_latency: u64,
    /// Input buffer depth per port, in flits.
    pub buffer_depth: usize,
    /// Whether routers may replicate flits (multicast). When `false`,
    /// multicast packets are serialized into unicast clones at injection.
    pub multicast: bool,
}

impl MeshConfig {
    /// Build from architecture NoC parameters.
    pub fn from_noc(p: &cosa_spec::NocParams) -> MeshConfig {
        MeshConfig {
            x: p.mesh_x,
            y: p.mesh_y,
            hop_latency: p.router_latency + p.link_latency,
            buffer_depth: p.buffer_depth,
            multicast: p.multicast,
        }
    }

    fn coords(&self, node: usize) -> (usize, usize) {
        (node % self.x, node / self.x)
    }

    /// Number of mesh nodes.
    pub fn nodes(&self) -> usize {
        self.x * self.y
    }
}

/// One packet to deliver: `flits` payload flits (plus an implicit head)
/// from `src` to every node in `dests`.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketSpec {
    /// Source node (the GB node for downstream traffic, a PE for
    /// writebacks).
    pub src: usize,
    /// Destination nodes. Multiple destinations form a multicast tree.
    pub dests: Vec<usize>,
    /// Number of flits (header included by the caller's accounting).
    pub flits: u64,
}

const DIR_E: usize = 0;
const DIR_W: usize = 1;
const DIR_N: usize = 2;
const DIR_S: usize = 3;
const DIR_LOCAL: usize = 4;
const DIR_INJECT: usize = 5;
const NUM_PORTS: usize = 6;
/// Cycles between steady-state probes: one priority rotation, so that every
/// probe falls on the same `now % 6`.
const PROBE_CYCLES: u64 = NUM_PORTS as u64;
/// Probe states kept as jump anchors; `ANCHORS * PROBE_CYCLES` is the
/// longest window a jump can repeat.
const ANCHORS: usize = 8;
/// A run probes for a steady state only while some source's front packet
/// has this many flits left to inject. At 64, sets whose longest packet
/// holds 97 flits ran 8–10 % slower than without probes; from 128 up they
/// are unchanged, and the suites' sets take the same host time at 128 as
/// at 64 or 256.
pub(crate) const JUMP_MIN_FLITS: u64 = 128;
const LOCAL: u8 = 1 << DIR_LOCAL;
/// The output ports that lead to a neighbour.
const LINKS: u8 = (1 << DIR_E) | (1 << DIR_W) | (1 << DIR_N) | (1 << DIR_S);

/// A flit in one word: `packet << 2 | head << 1 | tail`.
#[derive(Debug, Clone, Copy, Default)]
struct Flit(u32);

impl Flit {
    fn new(packet: u32, head: bool, tail: bool) -> Flit {
        Flit(packet << 2 | (head as u32) << 1 | tail as u32)
    }

    fn packet(self) -> u32 {
        self.0 >> 2
    }

    fn head(self) -> bool {
        self.0 & 2 != 0
    }

    fn tail(self) -> bool {
        self.0 & 1 != 0
    }
}

/// Per-input-port state: where its flits sit in its ring, (while a packet
/// streams through) the granted output ports, and (while asleep) what it
/// waits for.
#[derive(Debug, Default, Clone, Copy)]
struct InPort {
    /// The ring slot of the front flit.
    front: u32,
    /// Flits that have arrived: the ring's first `queued`.
    queued: u32,
    /// Flits in the ring: the queue, then the in-flight pipeline.
    len: u32,
    /// Packet owning the grant; meaningful only while `grant` is non-zero.
    owner: u32,
    /// Output-port mask granted to `owner`; zero when no packet streams.
    grant: u8,
    /// While asleep: the link outputs whose room wakes the port.
    wait_room: u8,
    /// While asleep: the output ports whose release wakes the port.
    wait_release: u8,
}

/// A set of port indices, one bit each.
#[derive(Debug)]
struct PortSet(Vec<u64>);

impl PortSet {
    fn new(ports: usize) -> PortSet {
        PortSet(vec![0; ports.div_ceil(64)])
    }

    fn insert(&mut self, port: usize) {
        self.0[port / 64] |= 1 << (port % 64);
    }

    fn remove(&mut self, port: usize) {
        self.0[port / 64] &= !(1 << (port % 64));
    }

    /// The members among `node`'s six ports, bit `dir` for port `dir`.
    fn node_mask(&self, node: usize) -> u8 {
        let (word, shift) = (node * NUM_PORTS / 64, node * NUM_PORTS % 64);
        let mut bits = self.0[word] >> shift;
        if shift + NUM_PORTS > 64 {
            bits |= self.0[word + 1] << (64 - shift);
        }
        (bits & 0x3f) as u8
    }
}

/// The cycle-stepped mesh simulator.
///
/// ```
/// use cosa_noc::{MeshConfig, MeshSim, PacketSpec};
/// let cfg = MeshConfig { x: 4, y: 4, hop_latency: 3, buffer_depth: 8, multicast: true };
/// // A 10-flit unicast packet from the GB to the far corner.
/// let cycles = MeshSim::new(cfg).run(&[PacketSpec { src: 0, dests: vec![15], flits: 10 }]);
/// // 6 hops * 3 cycles + 10 flits of serialization, give or take setup.
/// assert!(cycles > 20 && cycles < 60, "{cycles}");
/// ```
#[derive(Debug)]
pub struct MeshSim {
    cfg: MeshConfig,
    /// Input ports, `node * 6 + dir`.
    ports: Vec<InPort>,
    /// Slots per port ring: `buffer_depth` rounded up to a power of two.
    ring: usize,
    /// Every port's ring, `port * ring + slot`.
    slots: Vec<Flit>,
    /// `(cycle, port)` of every in-flight flit's arrival, in push order and
    /// so in arrival order: every hop takes the same cycles.
    arrivals: VecDeque<(u64, u32)>,
    /// Output port `node * 6 + dir` (a link direction) → the input port it
    /// feeds at the neighbour; `usize::MAX` at the mesh edge.
    downstream: Vec<usize>,
    /// Per node, the union of its input ports' grants.
    granted: Vec<u8>,
    /// Ports whose queue is non-empty.
    queued: PortSet,
    /// Ports whose pipeline is non-empty.
    in_flight: PortSet,
    /// Queued ports whose front flit is known to be blocked until an
    /// output it waits for gets room or is released.
    asleep: PortSet,
    /// Input port → the output port `node * 6 + dir` that feeds it;
    /// `usize::MAX` where no link does.
    upstream: Vec<usize>,
    /// Flits per packet.
    flits: Vec<u64>,
    /// Output-port mask per `(packet, node)`, `packet * nodes + node`.
    routes: Vec<u8>,
    /// Per-source injection queues of `(packet, flits left to inject)`
    /// (packets are serialized per source).
    inject_queues: Vec<VecDeque<(u32, u64)>>,
    /// Nodes whose injection queue is non-empty, in no particular order.
    sources: Vec<usize>,
    /// Flit ejections still to happen, one per flit per distinct
    /// destination.
    outstanding: u64,
    /// Packets not yet fully injected.
    queued_packets: usize,
    now: u64,
    /// Whether a head or tail flit was injected since the last probe.
    event: bool,
    /// The jump anchors, reused across probes.
    anchors: Anchors,
    /// Cycles stepped, to show that a run jumped.
    #[cfg(test)]
    steps: u64,
}

/// The probe states since the last head or tail injection, the last
/// [`ANCHORS`] of them (see "Steady state" in the module doc).
#[derive(Debug, Default)]
struct Anchors {
    /// Up to [`ANCHORS`] buffers, reused; `ring[next]` is written next.
    ring: Vec<Anchor>,
    next: usize,
    /// Anchors held, the newest at `next − 1`.
    held: usize,
}

impl Anchors {
    /// The slots of the anchors held, newest first.
    fn newest_first(&self) -> impl Iterator<Item = usize> {
        let next = self.next;
        (1..=self.held).map(move |age| (next + ANCHORS - age) % ANCHORS)
    }
}

/// One probe's canonical state and what it leaves out.
#[derive(Debug, Default)]
struct Anchor {
    /// The canonical state's encoding.
    state: Vec<u64>,
    /// The front packet's flits left to inject, per source in `sources`
    /// order.
    left: Vec<u64>,
    outstanding: u64,
    now: u64,
}

impl MeshSim {
    /// A fresh simulator for `cfg`.
    pub fn new(cfg: MeshConfig) -> MeshSim {
        let nodes = cfg.nodes();
        let mut downstream = vec![usize::MAX; nodes * NUM_PORTS];
        for node in 0..nodes {
            let (x, y) = cfg.coords(node);
            let out = &mut downstream[node * NUM_PORTS..][..NUM_PORTS];
            if x + 1 < cfg.x {
                out[DIR_E] = (node + 1) * NUM_PORTS + DIR_W;
            }
            if x > 0 {
                out[DIR_W] = (node - 1) * NUM_PORTS + DIR_E;
            }
            if y > 0 {
                out[DIR_N] = (node - cfg.x) * NUM_PORTS + DIR_S;
            }
            if y + 1 < cfg.y {
                out[DIR_S] = (node + cfg.x) * NUM_PORTS + DIR_N;
            }
        }
        let mut upstream = vec![usize::MAX; nodes * NUM_PORTS];
        for (out, &q) in downstream.iter().enumerate() {
            if q != usize::MAX {
                upstream[q] = out;
            }
        }
        let ring = cfg.buffer_depth.max(1).next_power_of_two();
        MeshSim {
            cfg,
            ports: vec![InPort::default(); nodes * NUM_PORTS],
            ring,
            slots: vec![Flit::default(); nodes * NUM_PORTS * ring],
            arrivals: VecDeque::with_capacity(nodes * NUM_PORTS * ring),
            downstream,
            granted: vec![0; nodes],
            queued: PortSet::new(nodes * NUM_PORTS),
            in_flight: PortSet::new(nodes * NUM_PORTS),
            asleep: PortSet::new(nodes * NUM_PORTS),
            upstream,
            flits: Vec::new(),
            routes: Vec::new(),
            inject_queues: vec![VecDeque::new(); nodes],
            sources: Vec::new(),
            outstanding: 0,
            queued_packets: 0,
            now: 0,
            event: false,
            anchors: Anchors::default(),
            #[cfg(test)]
            steps: 0,
        }
    }

    /// Deliver all packets; returns the cycle at which the last flit ejects.
    ///
    /// Packets from the same source are injected back-to-back in order;
    /// different sources inject concurrently (each node has its own
    /// injection port).
    pub fn run(mut self, packets: &[PacketSpec]) -> u64 {
        self.simulate(packets)
    }

    fn simulate(&mut self, packets: &[PacketSpec]) -> u64 {
        // Expand multicast into unicast clones when the fabric lacks
        // replication support.
        for p in packets {
            debug_assert!(!p.dests.is_empty());
            debug_assert!(p.flits > 0);
            if self.cfg.multicast {
                self.add_packet(p.src, &p.dests, p.flits);
            } else {
                for d in &p.dests {
                    self.add_packet(p.src, std::slice::from_ref(d), p.flits);
                }
            }
        }
        self.sources = (0..self.cfg.nodes())
            .filter(|&n| !self.inject_queues[n].is_empty())
            .collect();

        let cap = self.cycle_cap(packets);
        let probe = packets.iter().any(|p| p.flits >= JUMP_MIN_FLITS);
        while !self.done() {
            self.step();
            if probe && self.now.is_multiple_of(PROBE_CYCLES) {
                self.probe();
            }
            if self.now > cap {
                // Deadlock guard: report the cap rather than hang. The
                // traffic patterns generated from valid schedules do not
                // deadlock (single-source trees + disjoint return paths),
                // so hitting this indicates a malformed packet set.
                debug_assert!(false, "mesh simulation exceeded cycle cap");
                return cap;
            }
        }
        self.now
    }

    /// Register one (possibly multicast) packet: its route masks, its
    /// ejection count and its place in the source's injection queue.
    fn add_packet(&mut self, src: usize, dests: &[usize], flits: u64) {
        let nodes = self.cfg.nodes();
        let packet = self.flits.len();
        assert!(packet < 1 << 30, "a flit holds a 30-bit packet index");
        self.flits.push(flits);
        self.routes.resize((packet + 1) * nodes, 0);
        let routes = &mut self.routes[packet * nodes..];
        let (sx, sy) = self.cfg.coords(src);
        for &d in dests {
            // X-Y path: horizontal at sy from sx→dx, then vertical at dx.
            let (dx, dy) = self.cfg.coords(d);
            let (mut x, mut y) = (sx, sy);
            loop {
                let node = y * self.cfg.x + x;
                let dir = if x != dx {
                    if dx > x {
                        x += 1;
                        DIR_E
                    } else {
                        x -= 1;
                        DIR_W
                    }
                } else if y != dy {
                    if dy > y {
                        y += 1;
                        DIR_S
                    } else {
                        y -= 1;
                        DIR_N
                    }
                } else {
                    DIR_LOCAL
                };
                routes[node] |= 1 << dir;
                if dir == DIR_LOCAL {
                    break;
                }
            }
        }
        let dests = routes[..nodes].iter().filter(|&&r| r & LOCAL != 0).count();
        self.outstanding += flits * dests as u64;
        self.inject_queues[src].push_back((packet as u32, flits));
        self.queued_packets += 1;
    }

    fn cycle_cap(&self, packets: &[PacketSpec]) -> u64 {
        let total_flits: u64 = packets.iter().map(|p| p.flits * p.dests.len() as u64).sum();
        let hops = (self.cfg.x + self.cfg.y) as u64 * self.cfg.hop_latency;
        10_000 + hops * 4 + total_flits * 16
    }

    fn done(&self) -> bool {
        self.outstanding == 0 && self.queued_packets == 0
    }

    /// The index in `slots` of port `p`'s `k`-th flit.
    fn slot(&self, p: usize, k: u32) -> usize {
        p * self.ring + ((self.ports[p].front + k) as usize & (self.ring - 1))
    }

    /// Append `flit` to port `p`'s ring, which has room for it.
    fn push(&mut self, p: usize, flit: Flit) {
        let s = self.slot(p, self.ports[p].len);
        self.slots[s] = flit;
        self.ports[p].len += 1;
    }

    fn step(&mut self) {
        self.now += 1;
        let now = self.now;
        #[cfg(test)]
        {
            self.steps += 1;
        }

        // 1. Arrivals reach the input queues.
        while let Some(&(_, p)) = self.arrivals.front().filter(|&&(t, _)| t <= now) {
            self.arrivals.pop_front();
            let p = p as usize;
            let port = &mut self.ports[p];
            port.queued += 1;
            if port.queued == port.len {
                self.in_flight.remove(p);
            }
            self.queued.insert(p);
        }

        // 2. Source injection: one flit per source per cycle into the
        //    injection port (subject to buffer space).
        let mut i = 0;
        while i < self.sources.len() {
            let node = self.sources[i];
            let p = node * NUM_PORTS + DIR_INJECT;
            if (self.ports[p].len as usize) < self.cfg.buffer_depth {
                let queue = &mut self.inject_queues[node];
                let (packet, left) = queue.front_mut().expect("sources have packets");
                let flit = Flit::new(*packet, *left == self.flits[*packet as usize], *left == 1);
                *left -= 1;
                if *left == 0 {
                    queue.pop_front();
                    self.queued_packets -= 1;
                }
                let drained = queue.is_empty();
                self.event |= flit.head() || flit.tail();
                self.push(p, flit);
                self.ports[p].queued += 1;
                self.queued.insert(p);
                if drained {
                    self.sources.swap_remove(i);
                    continue;
                }
            }
            i += 1;
        }

        // 3. Switch allocation + traversal, one flit per input port per
        //    cycle, one grant per output port. Rotating priority between
        //    input ports avoids starvation. Allocating at a node pops only
        //    that node's queues and wakes only its own and its neighbours'
        //    ports, so the nodes to visit are found as we go.
        let mut next = self.next_awake(0);
        while let Some(p) = next {
            let node = p / NUM_PORTS;
            self.allocate(node, now);
            next = self.next_awake((node + 1) * NUM_PORTS);
        }
    }

    /// Phase 3 at one node: each input port with a queued flit, in rotating
    /// priority from `now % 6`, forwards its head flit if the flit's output
    /// ports are its own or free and every downstream buffer has room.
    fn allocate(&mut self, node: usize, now: u64) {
        let base = node * NUM_PORTS;
        let (nodes, depth, ring) = (self.cfg.nodes(), self.cfg.buffer_depth, self.ring);
        let arrival = now + self.cfg.hop_latency;
        // The input port each link output feeds.
        let links: [usize; 4] = std::array::from_fn(|d| self.downstream[base + d]);
        let mut claimed = self.granted[node];
        let start = (now as usize) % NUM_PORTS;
        let asleep = self.asleep.node_mask(node);
        debug_assert!(
            bits(asleep).all(|pi| self.blocked(base + pi)),
            "an asleep port could move"
        );
        let queued = self.queued.node_mask(node) & !asleep;
        // Bit `off` of `order` is port `(start + off) % 6`.
        let mut order = ((queued >> start) | (queued << (NUM_PORTS - start))) & 0x3f;
        while order != 0 {
            let pi = (start + order.trailing_zeros() as usize) % NUM_PORTS;
            order &= order - 1;
            let p = base + pi;
            let port = self.ports[p];
            let flit = self.slots[p * ring + port.front as usize];
            let held = port.grant;
            let dirs = if held != 0 {
                if port.owner != flit.packet() {
                    continue; // wormhole busy with another packet
                }
                held
            } else {
                if !flit.head() {
                    // Body flit without a grant: its head moved on under an
                    // earlier grant that was released — cannot happen
                    // because grants persist to tail.
                    debug_assert!(flit.head(), "body flit without grant");
                    continue;
                }
                let route = self.routes[flit.packet() as usize * nodes + node];
                if route == 0 {
                    // Mis-routed flit; drop defensively.
                    self.pop(p);
                    continue;
                }
                // Head may only proceed if *all* branch ports are free
                // (multicast fork is synchronous).
                if route & claimed != 0 {
                    // A grant blocks it until released; a claim made
                    // earlier this cycle and not held may not.
                    let held_elsewhere = route & self.granted[node];
                    if held_elsewhere != 0 {
                        self.sleep(p, 0, held_elsewhere);
                    }
                    continue;
                }
                route
            };

            // Check downstream space on every non-local branch.
            if bits(dirs & LINKS).any(|d| self.ports[links[d]].len as usize >= depth) {
                self.sleep(p, dirs & LINKS, 0);
                continue;
            }

            // Forward the flit on all branches; each writes its own port.
            self.pop(p);
            claimed |= dirs;
            if dirs & LOCAL != 0 {
                // Ejection: deliver to this node.
                self.outstanding -= 1;
            }
            for d in bits(dirs & LINKS) {
                let q = links[d];
                self.push(q, flit);
                self.arrivals.push_back((arrival, q as u32));
                self.in_flight.insert(q);
            }
            // Maintain the wormhole grant.
            if flit.tail() {
                self.granted[node] &= !held;
                self.ports[p].grant = 0;
                self.wake(node, 0, held);
            } else if held == 0 {
                self.granted[node] |= dirs;
                self.ports[p].owner = flit.packet();
                self.ports[p].grant = dirs;
            }
        }
    }

    /// Every `PROBE_CYCLES`: compare the canonical state with the anchors
    /// and, on a match, jump over as many repeats of the window between
    /// them as the front packets' flits left allow; otherwise keep the
    /// state as the newest anchor.
    fn probe(&mut self) {
        let long = self
            .sources
            .iter()
            .any(|&s| front_left(&self.inject_queues[s]) >= JUMP_MIN_FLITS);
        if !long {
            self.anchors.held = 0;
            return;
        }
        if self.event {
            self.anchors.held = 0;
            self.event = false;
        } else {
            let matched = self
                .anchors
                .newest_first()
                .find(|&a| self.matches(&self.anchors.ring[a].state));
            if matched.is_some_and(|a| self.jump(a)) {
                return;
            }
        }
        let next = self.anchors.next;
        if next == self.anchors.ring.len() {
            self.anchors.ring.push(Anchor::default());
        }
        let mut state = std::mem::take(&mut self.anchors.ring[next].state);
        state.clear();
        let _ = self.visit_state(&mut |word| {
            state.push(word);
            ControlFlow::Continue(())
        });
        let anchor = &mut self.anchors.ring[next];
        anchor.state = state;
        anchor.left.clear();
        let queues = &self.inject_queues;
        anchor
            .left
            .extend(self.sources.iter().map(|&s| front_left(&queues[s])));
        anchor.outstanding = self.outstanding;
        anchor.now = self.now;
        self.anchors.next = (next + 1) % ANCHORS;
        self.anchors.held = (self.anchors.held + 1).min(ANCHORS);
    }

    /// Whether the live canonical state is the one `anchor` encodes; stops
    /// at the first word that differs.
    fn matches(&self, anchor: &[u64]) -> bool {
        let mut words = anchor.iter();
        let visited = self.visit_state(&mut |word| {
            if words.next() == Some(&word) {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
        visited.is_continue() && words.next().is_none()
    }

    /// The state repeats anchor `a`'s, with no head or tail injected in
    /// between: jump over as many more repeats of the window as leave every
    /// source its tail flit to inject. Returns whether it jumped.
    fn jump(&mut self, a: usize) -> bool {
        let anchor = &self.anchors.ring[a];
        // Source `s` injects `then - now` body flits per window.
        let windows = self
            .sources
            .iter()
            .zip(&anchor.left)
            .filter_map(|(&s, &then)| {
                let now = front_left(&self.inject_queues[s]);
                (then > now).then(|| (now - 1) / (then - now))
            })
            .min()
            .unwrap_or(0);
        if windows == 0 {
            return false;
        }
        let period = self.now - anchor.now;
        self.outstanding -= windows * (anchor.outstanding - self.outstanding);
        for (&s, &then) in self.sources.iter().zip(&anchor.left) {
            let left = &mut self.inject_queues[s]
                .front_mut()
                .expect("sources have packets")
                .1;
            *left -= windows * (then - *left);
        }
        let skipped = windows * period;
        self.now += skipped;
        for (t, _) in &mut self.arrivals {
            *t += skipped;
        }
        self.anchors.held = 0;
        true
    }

    /// Hand `visit` the canonical state word by word, stopping when it
    /// breaks: everything the next steps depend on except the front
    /// packets' flits left, `outstanding` and `now`. Arrival times count
    /// from `now`, and probes share `now % 6`. A source's injection queue
    /// is always the tail of the list it started with, so its length stands
    /// for its packets, and `queued_packets` is their sum. Equal words are
    /// equal states: every length comes before its items.
    fn visit_state(&self, visit: &mut impl FnMut(u64) -> ControlFlow<()>) -> ControlFlow<()> {
        for (&queued, &in_flight) in self.queued.0.iter().zip(&self.in_flight.0) {
            visit(queued)?;
            visit(in_flight)?;
        }
        for chunk in self.granted.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            visit(u64::from_le_bytes(word))?;
        }
        for (node, _) in self.granted.iter().enumerate().filter(|(_, &g)| g != 0) {
            let ports = &self.ports[node * NUM_PORTS..][..NUM_PORTS];
            visit(
                ports
                    .iter()
                    .fold(0, |word, port| word << 8 | port.grant as u64),
            )?;
            for port in ports.iter().filter(|port| port.grant != 0) {
                visit(port.owner as u64)?;
            }
        }
        for word in 0..self.queued.0.len() {
            let mut bits = self.queued.0[word] | self.in_flight.0[word];
            while bits != 0 {
                let p = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let port = self.ports[p];
                visit((port.len as u64) << 32 | port.queued as u64)?;
                // The queue, then the in-flight flits, two to a word.
                let flit = |k| self.slots[self.slot(p, k)].0 as u64;
                for k in (0..port.len).step_by(2) {
                    let next = if k + 1 < port.len { flit(k + 1) } else { 0 };
                    visit(next << 32 | flit(k))?;
                }
            }
        }
        // Arrival times share a word with their port unless a hop can take
        // 2^32 cycles, which depends only on the mesh.
        let wide = self.cfg.hop_latency >> 32 != 0;
        visit(self.arrivals.len() as u64)?;
        for &(t, p) in &self.arrivals {
            if wide {
                visit(t - self.now)?;
                visit(p as u64)?;
            } else {
                visit((t - self.now) << 32 | p as u64)?;
            }
        }
        visit(self.sources.len() as u64)?;
        for &s in &self.sources {
            visit((s as u64) << 32 | self.inject_queues[s].len() as u64)?;
        }
        ControlFlow::Continue(())
    }

    /// Pop port `p`'s front flit, keeping the queued set in step. The room
    /// it leaves wakes the upstream ports waiting for it.
    fn pop(&mut self, p: usize) {
        let port = &mut self.ports[p];
        port.front = (port.front + 1) & (self.ring as u32 - 1);
        port.queued -= 1;
        port.len -= 1;
        if port.queued == 0 {
            self.queued.remove(p);
        }
        let out = self.upstream[p];
        if out != usize::MAX {
            self.wake(out / NUM_PORTS, 1 << (out % NUM_PORTS), 0);
        }
    }

    /// Put queued port `p` to sleep until one of the link outputs in
    /// `room` gets room or one of the outputs in `release` is released.
    fn sleep(&mut self, p: usize, room: u8, release: u8) {
        self.ports[p].wait_room = room;
        self.ports[p].wait_release = release;
        self.asleep.insert(p);
    }

    /// Whether queued port `p`'s front flit is blocked by a grant held at
    /// its node or by a full downstream port: what keeps a port asleep.
    fn blocked(&self, p: usize) -> bool {
        let (node, port) = (p / NUM_PORTS, self.ports[p]);
        let flit = self.slots[p * self.ring + port.front as usize];
        let dirs = if port.grant != 0 {
            port.grant
        } else {
            let route = self.routes[flit.packet() as usize * self.cfg.nodes() + node];
            if route & self.granted[node] != 0 {
                return true;
            }
            route
        };
        bits(dirs & LINKS).any(|d| {
            self.ports[self.downstream[p - p % NUM_PORTS + d]].len as usize >= self.cfg.buffer_depth
        })
    }

    /// Wake the ports of `node` asleep on an output in `room` (it got
    /// room) or in `release` (it was released).
    fn wake(&mut self, node: usize, room: u8, release: u8) {
        let mut sleepers = self.asleep.node_mask(node);
        while sleepers != 0 {
            let p = node * NUM_PORTS + sleepers.trailing_zeros() as usize;
            sleepers &= sleepers - 1;
            let port = &self.ports[p];
            if port.wait_room & room | port.wait_release & release != 0 {
                self.asleep.remove(p);
            }
        }
    }

    /// The first port at or above `from` with a queued flit, not asleep.
    fn next_awake(&self, from: usize) -> Option<usize> {
        let awake = |word: usize| Some(self.queued.0.get(word)? & !self.asleep.0[word]);
        let mut word = from / 64;
        let mut bits = awake(word)? & (!0 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            bits = awake(word)?;
        }
    }
}

/// Flits of an injection queue's front packet still to inject.
fn front_left(queue: &VecDeque<(u32, u64)>) -> u64 {
    queue.front().map_or(0, |&(_, left)| left)
}

/// The indices of the set bits of `mask`, lowest first.
fn bits(mut mask: u8) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let d = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (d < 8).then_some(d)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg4() -> MeshConfig {
        MeshConfig {
            x: 4,
            y: 4,
            hop_latency: 3,
            buffer_depth: 8,
            multicast: true,
        }
    }

    #[test]
    fn single_flit_latency_scales_with_hops() {
        // dest 3 = (3,0): 3 hops. dest 15 = (3,3): 6 hops.
        let near = MeshSim::new(cfg4()).run(&[PacketSpec {
            src: 0,
            dests: vec![3],
            flits: 1,
        }]);
        let far = MeshSim::new(cfg4()).run(&[PacketSpec {
            src: 0,
            dests: vec![15],
            flits: 1,
        }]);
        assert!(far > near, "far {far} vs near {near}");
        assert!(far >= 6 * 3, "{far}");
    }

    #[test]
    fn long_packet_serializes_on_flits() {
        let short = MeshSim::new(cfg4()).run(&[PacketSpec {
            src: 0,
            dests: vec![5],
            flits: 2,
        }]);
        let long = MeshSim::new(cfg4()).run(&[PacketSpec {
            src: 0,
            dests: vec![5],
            flits: 64,
        }]);
        assert!(long >= short + 62, "long {long} vs short {short}");
    }

    #[test]
    fn multicast_beats_unicast_clones() {
        let dests: Vec<usize> = (1..16).collect();
        let pkt = PacketSpec {
            src: 0,
            dests: dests.clone(),
            flits: 32,
        };
        let mc = MeshSim::new(cfg4()).run(std::slice::from_ref(&pkt));
        let mut uc_cfg = cfg4();
        uc_cfg.multicast = false;
        let uc = MeshSim::new(uc_cfg).run(&[pkt]);
        assert!(
            mc * 2 < uc,
            "multicast {mc} should be far faster than unicast clones {uc}"
        );
    }

    #[test]
    fn contending_packets_serialize() {
        // Two packets to the same destination share every link.
        let one = MeshSim::new(cfg4()).run(&[PacketSpec {
            src: 0,
            dests: vec![3],
            flits: 32,
        }]);
        let two = MeshSim::new(cfg4()).run(&[
            PacketSpec {
                src: 0,
                dests: vec![3],
                flits: 32,
            },
            PacketSpec {
                src: 0,
                dests: vec![3],
                flits: 32,
            },
        ]);
        assert!(two >= one + 30, "two {two} vs one {one}");
    }

    #[test]
    fn distinct_sources_can_overlap() {
        // Writebacks from two different PEs to the GB overlap on disjoint
        // path prefixes: total ≪ sum of individual times.
        let a = PacketSpec {
            src: 15,
            dests: vec![0],
            flits: 32,
        };
        let b = PacketSpec {
            src: 12,
            dests: vec![0],
            flits: 32,
        };
        let ta = MeshSim::new(cfg4()).run(std::slice::from_ref(&a));
        let tb = MeshSim::new(cfg4()).run(std::slice::from_ref(&b));
        let both = MeshSim::new(cfg4()).run(&[a, b]);
        assert!(both < ta + tb, "both {both} vs {ta}+{tb}");
    }

    #[test]
    fn empty_traffic_finishes_immediately() {
        assert_eq!(MeshSim::new(cfg4()).run(&[]), 0);
    }

    #[test]
    fn all_flits_delivered_to_all_dests() {
        // Deliberately heavy multicast + writeback mix; the run must
        // terminate (i.e. every (packet, dest) pair drains to zero).
        let mut pkts = vec![PacketSpec {
            src: 0,
            dests: (1..16).collect(),
            flits: 16,
        }];
        for pe in [5usize, 6, 9, 10] {
            pkts.push(PacketSpec {
                src: pe,
                dests: vec![0],
                flits: 8,
            });
        }
        let cycles = MeshSim::new(cfg4()).run(&pkts);
        assert!(cycles > 0);
    }

    /// SplitMix64: enough randomness for packet sets, no dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        /// 1-flit packets one time in four, else up to 24 flits.
        fn flits(&mut self) -> u64 {
            if self.below(4) == 0 {
                1
            } else {
                1 + self.below(24)
            }
        }
    }

    /// Traffic shaped like a `TrafficPlan`'s, randomized: multicast or
    /// unicast packets from the GB at node 0 (destinations drawn with
    /// repeats, in any order), and writebacks to the GB from several PEs,
    /// all interleaved in a random order.
    fn random_packets(rng: &mut Rng, nodes: usize) -> Vec<PacketSpec> {
        let mut packets = Vec::new();
        for _ in 0..1 + rng.below(4) {
            let fanout = 1 + rng.below(nodes.min(12) as u64);
            packets.push(PacketSpec {
                src: 0,
                dests: (0..fanout)
                    .map(|_| rng.below(nodes as u64) as usize)
                    .collect(),
                flits: rng.flits(),
            });
        }
        for _ in 0..rng.below(7) {
            packets.push(PacketSpec {
                src: rng.below(nodes as u64) as usize,
                dests: vec![0],
                flits: rng.flits(),
            });
        }
        for i in (1..packets.len()).rev() {
            packets.swap(i, rng.below(i as u64 + 1) as usize);
        }
        packets
    }

    #[test]
    fn cycle_counts_match_the_reference_simulator() {
        let mut rng = Rng(0xC05A);
        for (x, y) in [(2, 2), (4, 4), (8, 8), (26, 1)] {
            for _ in 0..96 {
                let cfg = MeshConfig {
                    x,
                    y,
                    hop_latency: 1 + rng.below(4),
                    buffer_depth: 1 + rng.below(8) as usize,
                    multicast: rng.below(2) == 0,
                };
                let packets = random_packets(&mut rng, cfg.nodes());
                let want = reference::MeshSim::new(cfg).run(&packets);
                let got = MeshSim::new(cfg).run(&packets);
                assert_eq!(got, want, "{cfg:?}\n{packets:?}");
            }
        }
    }

    /// Packets long enough to reach a steady state (up to 3 000 flits one
    /// time in three) mixed with short ones: from the GB at node 0, multicast
    /// or unicast, and 1–6 writebacks from random PEs contending at the GB.
    fn long_packets(rng: &mut Rng, nodes: usize) -> Vec<PacketSpec> {
        let flits = |rng: &mut Rng| {
            if rng.below(3) == 0 {
                1 + rng.below(3000)
            } else {
                rng.flits()
            }
        };
        let mut packets = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let fanout = 1 + rng.below(nodes.min(6) as u64);
            packets.push(PacketSpec {
                src: 0,
                dests: (0..fanout)
                    .map(|_| rng.below(nodes as u64) as usize)
                    .collect(),
                flits: flits(rng),
            });
        }
        for _ in 0..1 + rng.below(6) {
            packets.push(PacketSpec {
                src: 1 + rng.below(nodes as u64 - 1) as usize,
                dests: vec![0],
                flits: flits(rng),
            });
        }
        for i in (1..packets.len()).rev() {
            packets.swap(i, rng.below(i as u64 + 1) as usize);
        }
        packets
    }

    #[test]
    fn steady_state_jumps_match_the_reference_simulator() {
        let mut rng = Rng(0x57EAD);
        let (mut cycles, mut steps) = (0, 0);
        for (x, y) in [(2, 2), (4, 4), (8, 8), (26, 1), (5, 3)] {
            for _ in 0..40 {
                let cfg = MeshConfig {
                    x,
                    y,
                    hop_latency: 1 + rng.below(4),
                    buffer_depth: 1 + rng.below(8) as usize,
                    multicast: rng.below(2) == 0,
                };
                let packets = long_packets(&mut rng, cfg.nodes());
                let want = reference::MeshSim::new(cfg).run(&packets);
                let mut sim = MeshSim::new(cfg);
                let got = sim.simulate(&packets);
                assert_eq!(got, want, "{cfg:?}\n{packets:?}");
                cycles += got;
                steps += sim.steps;
            }
        }
        assert!(steps * 2 < cycles, "stepped {steps} of {cycles} cycles");
    }

    /// Traffic shaped like the suites' transfer sets: 16–26 packets from the
    /// GB at node 0 (unicasts and two- or eight-way multicasts to distinct
    /// PEs, most of 65 to ≈ 2 000 flits), then writebacks of 65–673 flits to
    /// the GB from 12–16 distinct PEs, which contend at the GB behind them.
    fn suite_packets(rng: &mut Rng, nodes: usize) -> Vec<PacketSpec> {
        let shuffle = |rng: &mut Rng, pes: &mut [usize]| {
            for i in (1..pes.len()).rev() {
                pes.swap(i, rng.below(i as u64 + 1) as usize);
            }
        };
        let mut pes: Vec<usize> = (0..nodes).collect();
        let mut packets = Vec::new();
        for _ in 0..16 + rng.below(11) {
            shuffle(rng, &mut pes);
            let fanout = [1, 1, 2, 8][rng.below(4) as usize].min(nodes);
            let flits = if rng.below(4) == 0 {
                1 + rng.below(64)
            } else {
                65 + rng.below(1_960)
            };
            packets.push(PacketSpec {
                src: 0,
                dests: pes[..fanout].to_vec(),
                flits,
            });
        }
        shuffle(rng, &mut pes);
        for &src in &pes[..(12 + rng.below(5) as usize).min(nodes)] {
            packets.push(PacketSpec {
                src,
                dests: vec![0],
                flits: 65 + rng.below(609),
            });
        }
        packets
    }

    #[test]
    fn suite_shaped_sets_match_the_reference_simulator() {
        let mut rng = Rng(0x5E7);
        let mut meshes = vec![(cfg4(), 12)];
        for (x, y) in [(5, 3), (26, 1), (8, 8), (2, 2)] {
            for _ in 0..4 {
                let cfg = MeshConfig {
                    x,
                    y,
                    hop_latency: 1 + rng.below(4),
                    buffer_depth: 1 + rng.below(8) as usize,
                    multicast: rng.below(2) == 0,
                };
                meshes.push((cfg, 1));
            }
        }
        let (mut cycles, mut steps) = (0, 0);
        for (cfg, sets) in meshes {
            for _ in 0..sets {
                let packets = suite_packets(&mut rng, cfg.nodes());
                let want = reference::MeshSim::new(cfg).run(&packets);
                let mut sim = MeshSim::new(cfg);
                let got = sim.simulate(&packets);
                assert_eq!(got, want, "{cfg:?}\n{packets:?}");
                cycles += got;
                steps += sim.steps;
            }
        }
        // 973 348 cycles; 106 438 stepped with one anchor per event.
        assert!(steps * 8 < cycles, "stepped {steps} of {cycles} cycles");
    }

    /// The ResNet-50 `1_7_512_2048_1` transfer set that sends every tensor
    /// and writes the outputs back, as the daemon's random schedule puts it
    /// on the 4×4 mesh: 16 weight unicasts, 8 two-way input multicasts and 2
    /// eight-way output readbacks from the GB, then a writeback from every
    /// PE to the GB.
    fn resnet_writeback_set() -> Vec<PacketSpec> {
        let packet = |src, dests: &[usize], flits| PacketSpec {
            src,
            dests: dests.to_vec(),
            flits,
        };
        let mut packets: Vec<PacketSpec> = [0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15]
            .map(|d| packet(0, &[d], 1_025))
            .into();
        packets.extend([0, 8, 4, 12, 1, 9, 5, 13].map(|d| packet(0, &[d, d + 2], 29)));
        packets.push(packet(0, &[0, 1, 4, 5, 8, 9, 12, 13], 673));
        packets.push(packet(0, &[2, 3, 6, 7, 10, 11, 14, 15], 673));
        packets.extend((0..16).map(|src| packet(src, &[0], 673)));
        packets
    }

    #[test]
    fn a_writeback_set_is_anchored_soon_after_each_event() {
        let mut sim = MeshSim::new(cfg4());
        let cycles = sim.simulate(&resnet_writeback_set());
        assert_eq!(cycles, 18_651);
        // With the first probe after each head or tail as the only anchor,
        // the set stepped 2 331 cycles; anchoring on any recent probe state
        // steps 1 407.
        assert!(
            sim.steps < 1_800,
            "stepped {} of {cycles} cycles",
            sim.steps
        );
    }

    #[test]
    fn a_long_packet_is_mostly_jumped_over() {
        let mut sim = MeshSim::new(cfg4());
        let flits = 1 << 20;
        let cycles = sim.simulate(&[PacketSpec {
            src: 0,
            dests: vec![15],
            flits,
        }]);
        assert!(cycles > flits, "{cycles}");
        assert!(
            sim.steps < 1_000,
            "stepped {} of {cycles} cycles",
            sim.steps
        );
    }
}

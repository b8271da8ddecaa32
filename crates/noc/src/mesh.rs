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
//! the neighbour. A wormhole grant is `(owner packet, output-port mask)`
//! in one byte, and each node keeps the union of its grants. A packet's
//! route is one output-port mask per `(packet, node)`, computed once per
//! run by walking the X-Y path to each destination. Two bitsets over the
//! ports hold the ones with a non-empty queue and the ones with a
//! non-empty in-flight pipeline, so a cycle visits only active ports, and
//! counters of outstanding ejections and queued packets make the
//! termination test O(1). After the first cycles fill the queues, a step
//! allocates nothing.
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
//! queues' packets, `queued_packets` and the rotating priority `now % 6`. Two
//! things are left out. The first is the front packets' flits left to
//! inject, which a step reads only to mark the injected flit a head
//! (`left == flits`) or a tail (`left == 1`, after which the queue pops).
//! The second is `outstanding`, which a step only decrements. So from equal
//! canonical states, two runs take equal steps as long as they inject the
//! same kind of flits (head, body, tail) at the same steps.
//!
//! While a source's front packet holds at least [`JUMP_MIN_FLITS`] flits to
//! inject, the run probes on every multiple of 6 cycles, so all probes see
//! the same rotating priority. A probe snapshots the canonical
//! state and, separately, each source's `left` and `outstanding`. At later
//! probes it compares the live canonical state with the snapshot by exact
//! equality. A new snapshot replaces the old one after a head or tail
//! injection, or when no match came within a few rotations. A match after
//! `P` cycles with no head or tail injected in between means:
//!
//! - the window of `P` steps starting from the live state repeats the one
//!   starting from the snapshot, step for step, while it again injects only
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
//! on to the cap as before. The snapshot buffers live in [`MeshSim`] and are
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
//! cycles whose outcome is proven above. The cycle counts are identical:
//! the replaced simulator is kept verbatim as a test-only reference module,
//! and seeded tests compare the two on random packet sets, short ones and
//! ones long enough to jump.

use std::collections::VecDeque;

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
/// Cycles a snapshot is kept without a match before a newer one replaces
/// it; the longest window a jump can repeat.
const SNAPSHOT_CYCLES: u64 = 8 * PROBE_CYCLES;
/// A run probes for a steady state only while some source's front packet
/// has this many flits left to inject. At 64, sets whose longest packet
/// holds 97 flits ran 8–10 % slower than without probes; from 128 up they
/// are unchanged, and the suites' sets take the same host time at 128 as
/// at 64 or 256.
pub(crate) const JUMP_MIN_FLITS: u64 = 128;
const LOCAL: u8 = 1 << DIR_LOCAL;
/// The output ports that lead to a neighbour.
const LINKS: u8 = (1 << DIR_E) | (1 << DIR_W) | (1 << DIR_N) | (1 << DIR_S);

#[derive(Debug, Clone, Copy)]
struct Flit {
    packet: u32,
    head: bool,
    tail: bool,
}

/// Per-input-port state: the queue, the in-flight flits due to arrive, and
/// (while a packet streams through) the granted output ports.
#[derive(Debug, Default)]
struct InPort {
    queue: VecDeque<Flit>,
    /// `(arrival_cycle, flit)`, in arrival order.
    pipeline: VecDeque<(u64, Flit)>,
    /// Packet owning the grant; meaningful only while `grant` is non-zero.
    owner: u32,
    /// Output-port mask granted to `owner`; zero when no packet streams.
    grant: u8,
}

impl InPort {
    fn occupancy(&self) -> usize {
        self.queue.len() + self.pipeline.len()
    }
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

    /// The smallest member at or above `from`.
    fn next_from(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = *self.0.get(word)? & (!0 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            bits = *self.0.get(word)?;
        }
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
    /// Output port `node * 6 + dir` (a link direction) → the input port it
    /// feeds at the neighbour; `usize::MAX` at the mesh edge.
    downstream: Vec<usize>,
    /// Per node, the union of its input ports' grants.
    granted: Vec<u8>,
    /// Ports whose queue is non-empty.
    queued: PortSet,
    /// Ports whose pipeline is non-empty.
    in_flight: PortSet,
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
    /// Whether a head or tail flit was injected since the last snapshot.
    event: bool,
    /// The steady-state probe's buffers, reused across probes.
    snapshot: Snapshot,
    /// Cycles stepped, to show that a run jumped.
    #[cfg(test)]
    steps: u64,
}

/// A snapshot of the canonical state (see "Steady state" in the module
/// doc) and what it leaves out.
#[derive(Debug, Default)]
struct Snapshot {
    /// The canonical state at `now`; empty when there is no snapshot.
    state: Vec<u64>,
    /// The live canonical state, compared with `state`.
    live: Vec<u64>,
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
        MeshSim {
            cfg,
            ports: (0..nodes * NUM_PORTS).map(|_| InPort::default()).collect(),
            downstream,
            granted: vec![0; nodes],
            queued: PortSet::new(nodes * NUM_PORTS),
            in_flight: PortSet::new(nodes * NUM_PORTS),
            flits: Vec::new(),
            routes: Vec::new(),
            inject_queues: vec![VecDeque::new(); nodes],
            sources: Vec::new(),
            outstanding: 0,
            queued_packets: 0,
            now: 0,
            event: false,
            snapshot: Snapshot::default(),
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

    fn step(&mut self) {
        self.now += 1;
        let now = self.now;
        #[cfg(test)]
        {
            self.steps += 1;
        }

        // 1. Arrivals reach the input queues.
        for word in 0..self.in_flight.0.len() {
            let mut bits = self.in_flight.0[word];
            while bits != 0 {
                let p = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let port = &mut self.ports[p];
                while let Some(&(t, flit)) = port.pipeline.front() {
                    if t > now {
                        break;
                    }
                    port.pipeline.pop_front();
                    port.queue.push_back(flit);
                    self.queued.insert(p);
                }
                if port.pipeline.is_empty() {
                    self.in_flight.remove(p);
                }
            }
        }

        // 2. Source injection: one flit per source per cycle into the
        //    injection port (subject to buffer space).
        let mut i = 0;
        while i < self.sources.len() {
            let node = self.sources[i];
            let p = node * NUM_PORTS + DIR_INJECT;
            let queue = &mut self.inject_queues[node];
            let (packet, left) = queue.front_mut().expect("sources have packets");
            if self.ports[p].occupancy() < self.cfg.buffer_depth {
                let flit = Flit {
                    packet: *packet,
                    head: *left == self.flits[*packet as usize],
                    tail: *left == 1,
                };
                self.event |= flit.head || flit.tail;
                self.ports[p].queue.push_back(flit);
                self.queued.insert(p);
                *left -= 1;
                if *left == 0 {
                    queue.pop_front();
                    self.queued_packets -= 1;
                    if queue.is_empty() {
                        self.sources.swap_remove(i);
                        continue;
                    }
                }
            }
            i += 1;
        }

        // 3. Switch allocation + traversal, one flit per input port per
        //    cycle, one grant per output port. Rotating priority between
        //    input ports avoids starvation. Allocating at a node pops only
        //    that node's queues, so the nodes to visit are found as we go.
        let mut next = self.queued.next_from(0);
        while let Some(p) = next {
            let node = p / NUM_PORTS;
            self.allocate(node, now);
            next = self.queued.next_from((node + 1) * NUM_PORTS);
        }
    }

    /// Phase 3 at one node: each input port with a queued flit, in rotating
    /// priority from `now % 6`, forwards its head flit if the flit's output
    /// ports are its own or free and every downstream buffer has room.
    fn allocate(&mut self, node: usize, now: u64) {
        let base = node * NUM_PORTS;
        let mut claimed = self.granted[node];
        let start = (now as usize) % NUM_PORTS;
        let queued = self.queued.node_mask(node);
        // Bit `off` of `order` is port `(start + off) % 6`.
        let mut order = ((queued >> start) | (queued << (NUM_PORTS - start))) & 0x3f;
        while order != 0 {
            let pi = (start + order.trailing_zeros() as usize) % NUM_PORTS;
            order &= order - 1;
            let p = base + pi;
            let port = &self.ports[p];
            let flit = *port.queue.front().expect("queued port");
            let held = port.grant;
            let dirs = if held != 0 {
                if port.owner != flit.packet {
                    continue; // wormhole busy with another packet
                }
                held
            } else {
                if !flit.head {
                    // Body flit without a grant: its head moved on under an
                    // earlier grant that was released — cannot happen
                    // because grants persist to tail.
                    debug_assert!(flit.head, "body flit without grant");
                    continue;
                }
                let route = self.routes[flit.packet as usize * self.cfg.nodes() + node];
                if route == 0 {
                    // Mis-routed flit; drop defensively.
                    self.pop(p);
                    continue;
                }
                // Head may only proceed if *all* branch ports are free
                // (multicast fork is synchronous).
                if route & claimed != 0 {
                    continue;
                }
                route
            };

            // Check downstream space on every non-local branch.
            let blocked = bits(dirs & LINKS).any(|d| {
                self.ports[self.downstream[base + d]].occupancy() >= self.cfg.buffer_depth
            });
            if blocked {
                continue;
            }

            // Forward the flit on all branches; each writes its own port.
            let flit = self.pop(p);
            claimed |= dirs;
            if dirs & LOCAL != 0 {
                // Ejection: deliver to this node.
                self.outstanding -= 1;
            }
            for d in bits(dirs & LINKS) {
                let q = self.downstream[base + d];
                self.ports[q]
                    .pipeline
                    .push_back((now + self.cfg.hop_latency, flit));
                self.in_flight.insert(q);
            }
            // Maintain the wormhole grant.
            if flit.tail {
                self.granted[node] &= !held;
                self.ports[p].grant = 0;
            } else if held == 0 {
                self.granted[node] |= dirs;
                self.ports[p].owner = flit.packet;
                self.ports[p].grant = dirs;
            }
        }
    }

    /// Every `PROBE_CYCLES`: snapshot the canonical state, or compare it
    /// with the snapshot and, on a match, jump over as many repeats of the
    /// window between them as the front packets' flits left allow.
    fn probe(&mut self) {
        let long = self
            .sources
            .iter()
            .any(|&s| front_left(&self.inject_queues[s]) >= JUMP_MIN_FLITS);
        if !long {
            self.snapshot.state.clear();
            return;
        }
        let mut live = std::mem::take(&mut self.snapshot.live);
        self.canonical_state(&mut live);
        if !self.event && live == self.snapshot.state {
            self.jump();
        } else if self.event
            || self.snapshot.state.is_empty()
            || self.now - self.snapshot.now >= SNAPSHOT_CYCLES
        {
            std::mem::swap(&mut live, &mut self.snapshot.state);
            let snap = &mut self.snapshot;
            snap.left.clear();
            let queues = &self.inject_queues;
            snap.left
                .extend(self.sources.iter().map(|&s| front_left(&queues[s])));
            snap.outstanding = self.outstanding;
            snap.now = self.now;
            self.event = false;
        }
        self.snapshot.live = live;
    }

    /// The state repeats the snapshot's, with no head or tail injected in
    /// between: jump over as many more repeats of the window as leave every
    /// source its tail flit to inject.
    fn jump(&mut self) {
        let snap = &self.snapshot;
        // Source `s` injects `then - now` body flits per window.
        let windows = self
            .sources
            .iter()
            .zip(&snap.left)
            .filter_map(|(&s, &then)| {
                let now = front_left(&self.inject_queues[s]);
                (then > now).then(|| (now - 1) / (then - now))
            })
            .min()
            .unwrap_or(0);
        if windows == 0 {
            return;
        }
        let period = self.now - snap.now;
        self.outstanding -= windows * (snap.outstanding - self.outstanding);
        for (&s, &then) in self.sources.iter().zip(&snap.left) {
            let left = &mut self.inject_queues[s]
                .front_mut()
                .expect("sources have packets")
                .1;
            *left -= windows * (then - *left);
        }
        let skipped = windows * period;
        self.now += skipped;
        for word in 0..self.in_flight.0.len() {
            let mut bits = self.in_flight.0[word];
            while bits != 0 {
                let p = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for (t, _) in &mut self.ports[p].pipeline {
                    *t += skipped;
                }
            }
        }
        self.snapshot.state.clear();
    }

    /// Encode into `out` everything the next steps depend on except the
    /// front packets' flits left, `outstanding` and `now`: arrival times
    /// count from `now`, and probes share `now % 6`. Equal encodings are
    /// equal states; every length is written before its items.
    fn canonical_state(&self, out: &mut Vec<u64>) {
        let flit = |f: &Flit| (f.packet as u64) << 2 | (f.head as u64) << 1 | f.tail as u64;
        out.clear();
        out.push(self.queued_packets as u64);
        out.extend_from_slice(&self.queued.0);
        out.extend_from_slice(&self.in_flight.0);
        out.extend(self.granted.chunks(8).map(|c| {
            let mut word = [0; 8];
            word[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(word)
        }));
        for (node, _) in self.granted.iter().enumerate().filter(|(_, &g)| g != 0) {
            out.extend(
                self.ports[node * NUM_PORTS..][..NUM_PORTS]
                    .iter()
                    .map(|port| {
                        if port.grant == 0 {
                            0
                        } else {
                            (port.owner as u64) << 8 | port.grant as u64
                        }
                    }),
            );
        }
        for word in 0..self.queued.0.len() {
            let mut bits = self.queued.0[word] | self.in_flight.0[word];
            while bits != 0 {
                let port = &self.ports[word * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                out.push(port.queue.len() as u64);
                out.extend(port.queue.iter().map(flit));
                out.push(port.pipeline.len() as u64);
                for (t, f) in &port.pipeline {
                    out.push(t - self.now);
                    out.push(flit(f));
                }
            }
        }
        out.push(self.sources.len() as u64);
        for &s in &self.sources {
            out.push(s as u64);
            out.push(self.inject_queues[s].len() as u64);
            out.extend(
                self.inject_queues[s]
                    .iter()
                    .map(|&(packet, _)| packet as u64),
            );
        }
    }

    /// Pop port `p`'s head flit, keeping the queued set in step.
    fn pop(&mut self, p: usize) -> Flit {
        let queue = &mut self.ports[p].queue;
        let flit = queue.pop_front().expect("queued port");
        if queue.is_empty() {
            self.queued.remove(p);
        }
        flit
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

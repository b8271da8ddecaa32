//! The mesh simulator as it was before the flat-port rewrite, kept
//! verbatim as the test oracle: `MeshSim` in the parent module must return
//! the same cycle count as this one on every packet set.

use std::collections::VecDeque;

use super::{MeshConfig, PacketSpec};

const DIR_E: usize = 0;
const DIR_W: usize = 1;
const DIR_N: usize = 2;
const DIR_S: usize = 3;
const DIR_LOCAL: usize = 4;
const DIR_INJECT: usize = 5;
const NUM_PORTS: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Flit {
    packet: u32,
    /// Sequence index within the packet (0 = head).
    seq: u64,
    tail: bool,
}

/// Per-input-port state: the queue and (while a packet streams through)
/// the granted output port set.
#[derive(Debug, Default, Clone)]
struct InPort {
    queue: VecDeque<Flit>,
    /// In-flight flits due to arrive later: `(arrival_cycle, flit)`.
    pipeline: VecDeque<(u64, Flit)>,
    /// Output ports currently granted to the packet streaming through.
    grant: Option<(u32, Vec<usize>)>,
}

impl InPort {
    fn occupancy(&self) -> usize {
        self.queue.len() + self.pipeline.len()
    }

    fn drain_arrivals(&mut self, now: u64) {
        while let Some((t, _)) = self.pipeline.front() {
            if *t <= now {
                let (_, f) = self.pipeline.pop_front().expect("checked front");
                self.queue.push_back(f);
            } else {
                break;
            }
        }
    }
}

/// The cycle-stepped mesh simulator.
#[derive(Debug)]
pub(super) struct MeshSim {
    cfg: MeshConfig,
    /// `ports[node][dir]`.
    ports: Vec<Vec<InPort>>,
    /// Packet table: route sources and destination sets.
    packets: Vec<PacketSpec>,
    /// Remaining flits to eject per `(packet, dest)`.
    remaining: Vec<Vec<(usize, u64)>>,
    /// Per-source injection queues (packets are serialized per source).
    inject_queues: Vec<VecDeque<(u32, u64)>>,
    now: u64,
}

impl MeshSim {
    /// A fresh simulator for `cfg`.
    pub(super) fn new(cfg: MeshConfig) -> MeshSim {
        let nodes = cfg.nodes();
        MeshSim {
            cfg,
            ports: (0..nodes)
                .map(|_| (0..NUM_PORTS).map(|_| InPort::default()).collect())
                .collect(),
            packets: Vec::new(),
            remaining: Vec::new(),
            inject_queues: vec![VecDeque::new(); nodes],
            now: 0,
        }
    }

    /// Deliver all packets; returns the cycle at which the last flit ejects.
    ///
    /// Packets from the same source are injected back-to-back in order;
    /// different sources inject concurrently (each node has its own
    /// injection port).
    pub(super) fn run(mut self, packets: &[PacketSpec]) -> u64 {
        // Expand multicast into unicast clones when the fabric lacks
        // replication support.
        let expanded: Vec<PacketSpec> = if self.cfg.multicast {
            packets.to_vec()
        } else {
            packets
                .iter()
                .flat_map(|p| {
                    p.dests.iter().map(|d| PacketSpec {
                        src: p.src,
                        dests: vec![*d],
                        flits: p.flits,
                    })
                })
                .collect()
        };
        for (i, p) in expanded.iter().enumerate() {
            debug_assert!(!p.dests.is_empty());
            debug_assert!(p.flits > 0);
            self.remaining
                .push(p.dests.iter().map(|d| (*d, p.flits)).collect());
            self.inject_queues[p.src].push_back((i as u32, p.flits));
        }
        self.packets = expanded;

        let cap = self.cycle_cap();
        while !self.done() {
            self.step();
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

    fn cycle_cap(&self) -> u64 {
        let total_flits: u64 = self
            .packets
            .iter()
            .map(|p| p.flits * p.dests.len() as u64)
            .sum();
        let hops = (self.cfg.x + self.cfg.y) as u64 * self.cfg.hop_latency;
        10_000 + hops * 4 + total_flits * 16
    }

    fn done(&self) -> bool {
        self.remaining
            .iter()
            .all(|dests| dests.iter().all(|(_, n)| *n == 0))
            && self.inject_queues.iter().all(|q| q.is_empty())
    }

    /// Direction(s) a packet takes out of `node`: the union of next hops of
    /// the X-Y paths to destinations whose route passes through `node`.
    fn route_dirs(&self, node: usize, pkt: &PacketSpec) -> Vec<usize> {
        let (nx, ny) = self.cfg.coords(node);
        let (sx, sy) = self.cfg.coords(pkt.src);
        let mut dirs = Vec::new();
        for &d in &pkt.dests {
            let (dx, dy) = self.cfg.coords(d);
            // X-Y path: horizontal at sy from sx→dx, then vertical at dx.
            let on_horizontal = ny == sy && within(nx, sx, dx);
            let on_vertical = nx == dx && within(ny, sy, dy);
            if !(on_horizontal || on_vertical) {
                continue;
            }
            let dir = if d == node {
                DIR_LOCAL
            } else if ny == sy && nx != dx {
                if dx > nx {
                    DIR_E
                } else {
                    DIR_W
                }
            } else if dy > ny {
                DIR_S
            } else if dy < ny {
                DIR_N
            } else {
                // On the vertical segment at the destination row but not the
                // destination itself can not happen (nx == dx && ny == dy ⇒
                // d == node).
                continue;
            };
            if !dirs.contains(&dir) {
                dirs.push(dir);
            }
        }
        dirs
    }

    fn neighbor(&self, node: usize, dir: usize) -> (usize, usize) {
        let (x, y) = self.cfg.coords(node);
        // Returns (node, arrival input port at that node).
        match dir {
            DIR_E => (y * self.cfg.x + (x + 1), DIR_W),
            DIR_W => (y * self.cfg.x + (x - 1), DIR_E),
            DIR_N => ((y - 1) * self.cfg.x + x, DIR_S),
            DIR_S => ((y + 1) * self.cfg.x + x, DIR_N),
            _ => unreachable!("no neighbor through local ports"),
        }
    }

    fn step(&mut self) {
        self.now += 1;
        let now = self.now;
        let nodes = self.cfg.nodes();

        // 1. Arrivals reach the input queues.
        for node in 0..nodes {
            for port in self.ports[node].iter_mut() {
                port.drain_arrivals(now);
            }
        }

        // 2. Source injection: one flit per source per cycle into the
        //    injection port (subject to buffer space).
        for node in 0..nodes {
            let Some(&(pkt, remaining)) = self.inject_queues[node].front() else {
                continue;
            };
            let in_port = &mut self.ports[node][DIR_INJECT];
            if in_port.occupancy() >= self.cfg.buffer_depth {
                continue;
            }
            let total = self.packets[pkt as usize].flits;
            let seq = total - remaining;
            in_port.queue.push_back(Flit {
                packet: pkt,
                seq,
                tail: remaining == 1,
            });
            if remaining == 1 {
                self.inject_queues[node].pop_front();
            } else {
                self.inject_queues[node].front_mut().expect("nonempty").1 -= 1;
            }
        }

        // 3. Switch allocation + traversal, one flit per input port per
        //    cycle, one grant per output port. Rotating priority between
        //    input ports avoids starvation.
        for node in 0..nodes {
            let mut out_claimed = [false; NUM_PORTS];
            // Output ports already owned by in-flight wormholes.
            for port in self.ports[node].iter() {
                if let Some((_, dirs)) = &port.grant {
                    for &d in dirs {
                        out_claimed[d] = true;
                    }
                }
            }
            let start = (now as usize) % NUM_PORTS;
            for off in 0..NUM_PORTS {
                let pi = (start + off) % NUM_PORTS;
                // Inspect the head flit.
                let Some(&flit) = self.ports[node][pi].queue.front() else {
                    continue;
                };
                let dirs: Vec<usize> = match &self.ports[node][pi].grant {
                    Some((owner, dirs)) if *owner == flit.packet => dirs.clone(),
                    Some(_) => continue, // wormhole busy with another packet
                    None => {
                        if flit.seq != 0 {
                            // Body flit without a grant: its head moved on
                            // under an earlier grant that was released —
                            // cannot happen because grants persist to tail.
                            debug_assert!(flit.seq == 0, "body flit without grant");
                            continue;
                        }
                        let route = self.route_dirs(node, &self.packets[flit.packet as usize]);
                        if route.is_empty() {
                            // Mis-routed flit; drop defensively.
                            self.ports[node][pi].queue.pop_front();
                            continue;
                        }
                        // Head may only proceed if *all* branch ports are
                        // free (multicast fork is synchronous).
                        if route.iter().any(|&d| out_claimed[d]) {
                            continue;
                        }
                        route
                    }
                };

                // Check downstream space on every non-local branch.
                let mut ok = true;
                for &d in &dirs {
                    if d == DIR_LOCAL {
                        continue;
                    }
                    let (nn, np) = self.neighbor(node, d);
                    if self.ports[nn][np].occupancy() >= self.cfg.buffer_depth {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    continue;
                }

                // Forward the flit on all branches.
                let flit = self.ports[node][pi].queue.pop_front().expect("head exists");
                for &d in &dirs {
                    out_claimed[d] = true;
                    if d == DIR_LOCAL {
                        // Ejection: deliver to this node.
                        for (dest, left) in self.remaining[flit.packet as usize].iter_mut() {
                            if *dest == node && *left > 0 {
                                *left -= 1;
                            }
                        }
                    } else {
                        let (nn, np) = self.neighbor(node, d);
                        self.ports[nn][np]
                            .pipeline
                            .push_back((now + self.cfg.hop_latency, flit));
                    }
                }
                // Maintain the wormhole grant.
                if flit.tail {
                    self.ports[node][pi].grant = None;
                } else {
                    self.ports[node][pi].grant = Some((flit.packet, dirs));
                }
            }
        }
    }
}

fn within(v: usize, a: usize, b: usize) -> bool {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    v >= lo && v <= hi
}

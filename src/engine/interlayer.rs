//! Inter-layer memory-aware scheduling: the residency pass behind
//! [`Engine::with_interlayer`](crate::engine::Engine::with_interlayer).
//!
//! CoSA schedules each layer in isolation; the Princeton follow-on
//! (*Combined Scheduling, Memory Allocation and Tensor Replacement*, arXiv
//! 2311.18246) extends the formulation across layer boundaries. This module
//! implements the first rung of that ladder: after the per-layer solves, a
//! residency optimizer chooses which inter-layer output tensors stay
//! resident in the on-chip buffer (the level directly below DRAM) between
//! adjacent [`Network`](cosa_spec::Network) entries, subject to a byte
//! budget, and re-weights the affected layers' objectives — a resident
//! hand-off drops the producer's DRAM write-back *and* the consumer's DRAM
//! input fill from the cost model
//! ([`CostModel::evaluate_resident_unchecked`]).
//!
//! The selection is exact. [`Network::interlayer_edges`] yields only an
//! entry's internal hand-off and its hand-off to the next entry, so the
//! candidate edges form a path, and [`ResidencyChain::select`] solves it
//! with a dynamic program over the entries: the state is whether the
//! entry's inbound edge is resident, the choice whether its internal and
//! out edges are, and feasibility is the same per-entry occupancy rule the
//! report's timeline uses ([`ResidencyChain::peak_bytes`]).
//!
//! The verdict is surfaced as the versioned
//! [`NetworkReport::interlayer`](crate::engine::NetworkReport) section:
//! per-edge tensor sizes and residency, the per-entry buffer-occupancy
//! timeline beside the bytes each entry's own schedule keeps in that
//! buffer (`overbooked_entries` counts the entries whose sum exceeds the
//! budget, which the selection does not yet prevent), and the headline
//! `offchip_bytes` total (with its per-layer baseline) that Fig.-style
//! campaigns plot. Everything here is deterministic: edges are enumerated
//! in execution order, ties break by edge order (see
//! [`ResidencyChain::select`]), and totals accumulate in a fixed order —
//! two runs over the same schedules serialize to identical bytes.

use cosa_model::CostModel;
use cosa_spec::{Arch, DataTensor, InterlayerEdge, Network};
use serde::{Deserialize, Serialize};

use crate::api::Scheduled;

/// Schema version of the [`InterlayerReport`] wire section.
pub const INTERLAYER_VERSION: u32 = 2;

/// Options for the inter-layer residency pass — the `interlayer` object of
/// the `/v1/schedule` request schema and the engine-level default set by
/// [`Engine::with_interlayer`](crate::engine::Engine::with_interlayer).
///
/// Missing wire fields deserialize to their defaults, so
/// `{"enabled": true}` is a complete request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub struct InterlayerOptions {
    /// Run the residency pass on network/suite requests (default `false`).
    pub enabled: bool,
    /// On-chip bytes available for resident inter-layer tensors. `None`
    /// (the default) resolves to the total capacity of the memory level
    /// directly below DRAM.
    pub budget_bytes: Option<u64>,
}

impl InterlayerOptions {
    /// Disabled (the engine default).
    pub fn disabled() -> InterlayerOptions {
        InterlayerOptions::default()
    }

    /// Enabled with the default budget.
    pub fn enabled() -> InterlayerOptions {
        InterlayerOptions {
            enabled: true,
            ..InterlayerOptions::default()
        }
    }

    /// Builder-style budget override.
    pub fn with_budget_bytes(mut self, bytes: u64) -> InterlayerOptions {
        self.budget_bytes = Some(bytes);
        self
    }

    /// The byte budget against `arch`: the explicit override, or the total
    /// capacity of the level directly below DRAM.
    pub fn resolve_budget(&self, arch: &Arch) -> u64 {
        self.budget_bytes
            .unwrap_or_else(|| arch.levels()[arch.dram_level() - 1].total_capacity())
    }

    /// Canonical fingerprint folded into cache keys and routing digests so
    /// memory-aware and per-layer schedules never collide.
    pub fn fingerprint(&self) -> String {
        serde_json::to_string(self).expect("options serialize")
    }
}

// Hand-written so missing wire fields mean defaults: `{"enabled": true}`
// and `{}` are valid option objects (the derive would require every field).
// A duplicate key's last value wins.
impl Deserialize for InterlayerOptions {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<InterlayerOptions, serde::Error> {
        const KNOWN: [&str; 2] = ["enabled", "budget_bytes"];
        let mut opts = InterlayerOptions::default();
        r.map("InterlayerOptions", |r, key| {
            match key {
                "enabled" => opts.enabled = Deserialize::deserialize(r)?,
                "budget_bytes" => opts.budget_bytes = Deserialize::deserialize(r)?,
                unknown => {
                    return Err(serde::Error::custom(format!(
                        "unknown interlayer option `{unknown}` (expected one of {KNOWN:?})"
                    )))
                }
            }
            Ok(())
        })?;
        Ok(opts)
    }
}

/// One inter-layer hand-off in the [`InterlayerReport`]: the edge, its
/// tensor footprint in bytes, the optimizer's verdict and what keeping it
/// on chip saves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterlayerEdgeReport {
    /// Producing entry's position label.
    pub producer: String,
    /// Consuming entry's position label (same as `producer` for the
    /// internal hand-offs of a `count > 1` entry).
    pub consumer: String,
    /// How many times this hand-off happens during network execution.
    pub multiplicity: u64,
    /// Bytes of the handed-off tensor (output elements × activation
    /// precision).
    pub tensor_bytes: u64,
    /// Whether the optimizer keeps this tensor resident on chip.
    pub resident: bool,
    /// Off-chip bytes avoided when resident, across all `multiplicity`
    /// hand-offs: the producer's DRAM output traffic plus the consumer's
    /// DRAM input traffic per instance.
    pub saved_bytes: f64,
}

/// One step of the buffer-occupancy timeline: resident inter-layer bytes
/// held on chip while a network entry executes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterlayerOccupancy {
    /// The entry's position label.
    pub entry: String,
    /// Peak resident inter-layer bytes during this entry's execution
    /// (always ≤ the resolved budget).
    pub peak_bytes: u64,
    /// Bytes the entry's own schedule keeps in the same buffer: the sum of
    /// `Schedule::stored_bytes` at the level directly below DRAM over the
    /// tensors that level stores (0 for an entry that failed to schedule).
    pub schedule_bytes: u64,
}

/// The versioned `interlayer` section of a
/// [`NetworkReport`](crate::engine::NetworkReport): what the residency
/// pass decided and what it bought. Present only when the pass ran;
/// pre-existing reports without the section still deserialize.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterlayerReport {
    /// Schema version ([`INTERLAYER_VERSION`]).
    pub version: u32,
    /// Resolved on-chip byte budget the selection respected.
    pub budget_bytes: u64,
    /// Every inter-layer hand-off in execution order, resident or not.
    pub edges: Vec<InterlayerEdgeReport>,
    /// Buffer-occupancy timeline, one step per network entry.
    pub occupancy: Vec<InterlayerOccupancy>,
    /// Edges kept resident.
    pub resident_edges: usize,
    /// Entries whose `schedule_bytes + peak_bytes` exceeds `budget_bytes`:
    /// the buffer is booked twice there, since the selection counts only
    /// the resident tensors.
    pub overbooked_entries: usize,
    /// Whole-network off-chip (DRAM) bytes with every entry scheduled in
    /// isolation — the per-layer baseline.
    pub baseline_offchip_bytes: f64,
    /// Whole-network off-chip bytes with the resident set applied: the
    /// headline the Fig.-style campaigns plot.
    pub offchip_bytes: f64,
    /// `baseline_offchip_bytes - offchip_bytes`.
    pub saved_offchip_bytes: f64,
    /// Residency-adjusted whole-network latency (Σ instances × re-weighted
    /// per-layer latency).
    pub total_latency_cycles: f64,
    /// Residency-adjusted whole-network energy.
    pub total_energy_pj: f64,
}

/// One candidate hand-off of a [`ResidencyChain`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidencyEdge {
    /// The hand-off, as [`Network::interlayer_edges`] yields it.
    pub edge: InterlayerEdge,
    /// Bytes the tensor holds on chip while resident.
    pub bytes: u64,
    /// Off-chip bytes avoided across all `multiplicity` hand-offs when the
    /// tensor is resident.
    pub saved: f64,
}

/// Per-entry view of the (up to three) edges that occupy buffer space
/// while the entry executes.
#[derive(Debug, Default, Clone, Copy)]
struct EntryEdges {
    /// Index of the boundary in-edge, if any.
    inbound: Option<usize>,
    /// Index of the internal repeat edge, if any.
    internal: Option<usize>,
    /// Index of the boundary out-edge, if any.
    out: Option<usize>,
}

/// The residency selection problem of one network: the entries' repeat
/// counts and the candidate hand-offs, each joining an entry to itself or
/// to the next entry.
#[derive(Debug, Clone)]
pub struct ResidencyChain {
    counts: Vec<u64>,
    edges: Vec<ResidencyEdge>,
    /// Edge-to-entry incidence for the occupancy rule.
    slots: Vec<EntryEdges>,
}

/// Peak resident bytes while an entry of `count` instances runs with
/// `inbound`, `internal` and `out` resident bytes (0 when not resident):
/// the worst instance. The first holds the in-edge plus its own internal
/// output, middles hold two internal copies, the last holds the internal
/// input plus the out-edge.
fn peak(count: u64, inbound: u64, internal: u64, out: u64) -> u64 {
    if count == 1 {
        inbound + out
    } else {
        let middle = if count >= 3 { 2 * internal } else { 0 };
        (inbound + internal).max(middle).max(internal + out)
    }
}

impl ResidencyChain {
    /// The chain of `counts.len()` entries with candidate `edges`.
    ///
    /// # Panics
    ///
    /// Panics unless every edge is internal (`producer == consumer`) or
    /// joins an entry to the next one, and the edges are in execution
    /// order (an entry's internal edge before its out-edge), as
    /// [`Network::interlayer_edges`] yields them.
    pub fn new(counts: Vec<u64>, edges: Vec<ResidencyEdge>) -> ResidencyChain {
        debug_assert!(
            counts.iter().all(|&c| c > 0),
            "every network entry runs at least once: {counts:?}"
        );
        let ends = |e: &ResidencyEdge| (e.edge.producer, e.edge.consumer);
        assert!(
            edges.windows(2).all(|w| ends(&w[0]) < ends(&w[1])),
            "edges must be in execution order"
        );
        let mut slots = vec![EntryEdges::default(); counts.len()];
        for (i, e) in edges.iter().enumerate() {
            let (producer, consumer) = ends(e);
            if producer == consumer {
                slots[producer].internal = Some(i);
            } else {
                assert_eq!(consumer, producer + 1, "edge {i} skips an entry");
                slots[producer].out = Some(i);
                slots[consumer].inbound = Some(i);
            }
        }
        ResidencyChain {
            counts,
            edges,
            slots,
        }
    }

    /// The candidate edges, in execution order.
    pub fn edges(&self) -> &[ResidencyEdge] {
        &self.edges
    }

    /// Peak resident bytes held while entry `t` executes with the edges
    /// flagged in `resident` on chip.
    pub fn peak_bytes(&self, t: usize, resident: &[bool]) -> u64 {
        let bytes = |slot: Option<usize>| {
            slot.filter(|&i| resident[i])
                .map_or(0, |i| self.edges[i].bytes)
        };
        let slot = self.slots[t];
        peak(
            self.counts[t],
            bytes(slot.inbound),
            bytes(slot.internal),
            bytes(slot.out),
        )
    }

    /// The resident set that saves the most off-chip bytes (the sum of
    /// `saved` over resident edges) with every entry's
    /// [`peak_bytes`](Self::peak_bytes) within `budget`. Among equally
    /// good sets, the lexicographically smallest resident vector in edge
    /// order wins (`false < true`: the first edge on which two optimal sets
    /// differ stays off chip). So an edge with `saved ≤ 0` is never
    /// resident: dropping it saves as much or more, still fits, and sorts
    /// first.
    ///
    /// A dynamic program over the entries from last to first: the state is
    /// whether the entry's inbound edge is resident, the choice whether its
    /// internal and out edges are, and the out choice is the next entry's
    /// state. Exact, in time linear in the entries.
    pub fn select(&self, budget: u64) -> Vec<bool> {
        let edge = |slot: Option<usize>| slot.map(|i| self.edges[i]);
        let bytes =
            |edge: Option<ResidencyEdge>, on: bool| edge.filter(|_| on).map_or(0, |e| e.bytes);
        let saved =
            |edge: Option<ResidencyEdge>, on: bool| edge.filter(|_| on).map_or(0.0, |e| e.saved);
        // best[t][s]: the most that entries t.. save when entry t's inbound
        // edge is resident (s = 1) or not (s = 0), and the (internal, out)
        // choice at t that attains it; -inf when s is infeasible.
        let mut best = vec![[(0.0, (false, false)); 2]; self.counts.len() + 1];
        for t in (0..self.counts.len()).rev() {
            let slot = self.slots[t];
            let (inbound_edge, internal_edge, out_edge) =
                (edge(slot.inbound), edge(slot.internal), edge(slot.out));
            for s in [false, true] {
                let mut pick = (f64::NEG_INFINITY, (false, false));
                // Choices in edge order, and only a strictly better one
                // replaces an earlier one: the tie-break above.
                for (internal, out) in [(false, false), (false, true), (true, false), (true, true)]
                {
                    if (internal && internal_edge.is_none()) || (out && out_edge.is_none()) {
                        continue;
                    }
                    let occupied = peak(
                        self.counts[t],
                        bytes(inbound_edge, s),
                        bytes(internal_edge, internal),
                        bytes(out_edge, out),
                    );
                    if occupied > budget {
                        continue;
                    }
                    let value = saved(internal_edge, internal)
                        + saved(out_edge, out)
                        + best[t + 1][usize::from(out)].0;
                    if value > pick.0 {
                        pick = (value, (internal, out));
                    }
                }
                best[t][usize::from(s)] = pick;
            }
        }
        let mut resident = vec![false; self.edges.len()];
        let mut inbound = false;
        for (t, slot) in self.slots.iter().enumerate() {
            let (internal, out) = best[t][usize::from(inbound)].1;
            for (slot, chosen) in [(slot.internal, internal), (slot.out, out)] {
                if let Some(i) = slot {
                    resident[i] = chosen;
                }
            }
            inbound = out;
        }
        resident
    }
}

/// The residency pass: evaluates candidates against the chosen per-layer
/// schedules, selects a resident set within budget, and re-weights the
/// affected layers.
pub(crate) struct InterlayerPass<'a> {
    arch: &'a Arch,
    model: CostModel,
    network: &'a Network,
    /// Per-entry chosen schedule (`None` for failed entries, which take no
    /// part in the pass).
    scheduled: Vec<Option<&'a Scheduled>>,
    budget: u64,
    chain: ResidencyChain,
    /// Per-entry per-instance DRAM tensor profile of the chosen schedule.
    profiles: Vec<Option<[f64; 3]>>,
}

impl<'a> InterlayerPass<'a> {
    pub(crate) fn new(
        arch: &'a Arch,
        network: &'a Network,
        scheduled: Vec<Option<&'a Scheduled>>,
        profiles: Vec<Option<[f64; 3]>>,
        options: &InterlayerOptions,
    ) -> InterlayerPass<'a> {
        let act_prec = arch.precision(DataTensor::Inputs);
        // Failed entries have no schedule to re-weight; skip their edges
        // entirely. A hand-off saves the producer's DRAM output traffic
        // plus the consumer's DRAM input traffic per instance.
        let edges = network
            .interlayer_edges()
            .into_iter()
            .filter_map(|edge| {
                let producer = profiles[edge.producer]?;
                let consumer = profiles[edge.consumer]?;
                let saved_per_instance =
                    producer[DataTensor::Outputs.index()] + consumer[DataTensor::Inputs.index()];
                Some(ResidencyEdge {
                    edge,
                    bytes: edge.elements * act_prec,
                    saved: edge.multiplicity as f64 * saved_per_instance,
                })
            })
            .collect();
        let counts = network.layers.iter().map(|e| e.count).collect();
        InterlayerPass {
            arch,
            model: CostModel::new(arch),
            network,
            scheduled,
            budget: options.resolve_budget(arch),
            chain: ResidencyChain::new(counts, edges),
            profiles,
        }
    }

    /// Bytes entry `t`'s own schedule keeps in the level directly below
    /// DRAM, over the tensors that level stores.
    fn schedule_bytes(&self, t: usize) -> u64 {
        let level = self.arch.dram_level() - 1;
        let stores = &self.arch.levels()[level];
        self.scheduled[t].map_or(0, |s| {
            DataTensor::ALL
                .into_iter()
                .filter(|&v| stores.stores(v))
                .map(|v| {
                    s.schedule
                        .stored_bytes(level, v, &self.network.layers[t].layer, self.arch)
                })
                .sum()
        })
    }

    /// Run the pass: select the resident set, re-weight the affected
    /// layers and assemble the report section with the
    /// residency-adjusted totals for entries that scheduled.
    pub(crate) fn run(self) -> InterlayerReport {
        let resident = self.chain.select(self.budget);

        // Re-evaluate each entry's chosen schedule per residency instance
        // class: how many executions of the entry run with (inputs
        // resident, outputs resident). Entries with no resident edge
        // evaluate once with the plain model, so baseline and adjusted
        // totals come from the same evaluator and the baseline matches
        // Σ count × profile exactly.
        let mut baseline_offchip = 0.0;
        let mut offchip = 0.0;
        let mut total_latency = 0.0;
        let mut total_energy = 0.0;
        for (t, entry) in self.network.layers.iter().enumerate() {
            let (Some(scheduled), Some(profile)) = (self.scheduled[t], self.profiles[t]) else {
                continue;
            };
            baseline_offchip += entry.count as f64 * profile.iter().sum::<f64>();
            let slot = self.chain.slots[t];
            let on = |slot: Option<usize>| slot.is_some_and(|i| resident[i]);
            let (bi, int, bo) = (on(slot.inbound), on(slot.internal), on(slot.out));
            let classes: &[(u64, bool, bool)] = if entry.count == 1 {
                &[(1, bi, bo)]
            } else {
                &[(1, bi, int), (entry.count - 2, int, int), (1, int, bo)]
            };
            for &(instances, rin, rout) in classes.iter().filter(|c| c.0 > 0) {
                let eval = if rin || rout {
                    let mut flags = [false; 3];
                    flags[DataTensor::Inputs.index()] = rin;
                    flags[DataTensor::Outputs.index()] = rout;
                    self.model
                        .evaluate_resident_unchecked(&entry.layer, &scheduled.schedule, flags)
                } else {
                    self.model
                        .evaluate_unchecked(&entry.layer, &scheduled.schedule)
                };
                offchip += instances as f64 * eval.dram_bytes();
                total_latency += instances as f64 * eval.latency_cycles;
                total_energy += instances as f64 * eval.energy_pj;
            }
        }

        let edges = self
            .chain
            .edges
            .iter()
            .zip(&resident)
            .map(|(c, &resident)| InterlayerEdgeReport {
                producer: self.network.layers[c.edge.producer].name.clone(),
                consumer: self.network.layers[c.edge.consumer].name.clone(),
                multiplicity: c.edge.multiplicity,
                tensor_bytes: c.bytes,
                resident,
                saved_bytes: if resident { c.saved } else { 0.0 },
            })
            .collect();
        let occupancy: Vec<InterlayerOccupancy> = self
            .network
            .layers
            .iter()
            .enumerate()
            .map(|(t, entry)| InterlayerOccupancy {
                entry: entry.name.clone(),
                peak_bytes: self.chain.peak_bytes(t, &resident),
                schedule_bytes: self.schedule_bytes(t),
            })
            .collect();

        InterlayerReport {
            version: INTERLAYER_VERSION,
            budget_bytes: self.budget,
            edges,
            overbooked_entries: occupancy
                .iter()
                .filter(|o| o.schedule_bytes + o.peak_bytes > self.budget)
                .count(),
            occupancy,
            resident_edges: resident.iter().filter(|&&r| r).count(),
            baseline_offchip_bytes: baseline_offchip,
            offchip_bytes: offchip,
            saved_offchip_bytes: baseline_offchip - offchip,
            total_latency_cycles: total_latency,
            total_energy_pj: total_energy,
        }
    }
}

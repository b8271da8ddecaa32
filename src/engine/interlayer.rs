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
//! Two strategies solve the selection problem:
//!
//! * [`InterlayerStrategy::Greedy`] — deterministic knapsack by
//!   savings-per-resident-byte density, admitting an edge only while every
//!   affected entry's peak occupancy stays within budget;
//! * [`InterlayerStrategy::Milp`] — an exact 0/1 program over the same
//!   occupancy constraints on the from-scratch `cosa-milp` backend
//!   (maximize saved DRAM bytes). Falls back to greedy if the solver
//!   errors, which no well-formed instance does.
//!
//! The verdict is surfaced as the versioned
//! [`NetworkReport::interlayer`](crate::engine::NetworkReport) section:
//! per-edge tensor sizes and residency, the per-entry buffer-occupancy
//! timeline, and the headline `offchip_bytes` total (with its per-layer
//! baseline) that Fig.-style campaigns plot. Everything here is
//! deterministic: edges are enumerated in execution order, ties break by
//! edge index, and totals accumulate in a fixed order — two runs over the
//! same schedules serialize to identical bytes.

use cosa_milp::{Cmp, LinExpr, Model, Sense};
use cosa_model::CostModel;
use cosa_spec::{Arch, DataTensor, InterlayerEdge, Network};
use serde::{Deserialize, Serialize};

use crate::api::Scheduled;

/// Schema version of the [`InterlayerReport`] wire section.
pub const INTERLAYER_VERSION: u32 = 1;

/// Which optimizer chooses the resident tensor set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum InterlayerStrategy {
    /// Deterministic knapsack by savings-per-byte density (the default).
    #[default]
    Greedy,
    /// Exact 0/1 selection via the `cosa-milp` backend.
    Milp,
}

impl InterlayerStrategy {
    /// Stable wire/CLI name (`"greedy"` / `"milp"`).
    pub fn name(self) -> &'static str {
        match self {
            InterlayerStrategy::Greedy => "greedy",
            InterlayerStrategy::Milp => "milp",
        }
    }

    /// Parse a wire/CLI name.
    pub fn parse(name: &str) -> Option<InterlayerStrategy> {
        match name {
            "greedy" => Some(InterlayerStrategy::Greedy),
            "milp" => Some(InterlayerStrategy::Milp),
            _ => None,
        }
    }
}

impl Serialize for InterlayerStrategy {
    fn serialize(&self, out: &mut serde::Writer) -> Result<(), serde::Error> {
        out.str(self.name());
        Ok(())
    }
}

impl Deserialize for InterlayerStrategy {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<InterlayerStrategy, serde::Error> {
        if r.peek() != Some(b'"') {
            return Err(serde::Error::custom(
                "expected string for InterlayerStrategy",
            ));
        }
        let s = r.str()?;
        InterlayerStrategy::parse(&s).ok_or_else(|| {
            serde::Error::custom(format!(
                "unknown interlayer strategy `{s}` (expected `greedy` or `milp`)"
            ))
        })
    }
}

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
    /// Selection strategy (default [`InterlayerStrategy::Greedy`]).
    pub strategy: InterlayerStrategy,
}

impl InterlayerOptions {
    /// Disabled (the engine default).
    pub fn disabled() -> InterlayerOptions {
        InterlayerOptions::default()
    }

    /// Enabled with the default budget and strategy.
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

    /// Builder-style strategy override.
    pub fn with_strategy(mut self, strategy: InterlayerStrategy) -> InterlayerOptions {
        self.strategy = strategy;
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
// A duplicate key's last value wins; a `null` strategy is the default.
impl Deserialize for InterlayerOptions {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<InterlayerOptions, serde::Error> {
        const KNOWN: [&str; 3] = ["enabled", "budget_bytes", "strategy"];
        let mut opts = InterlayerOptions::default();
        r.map("InterlayerOptions", |r, key| {
            match key {
                "enabled" => opts.enabled = Deserialize::deserialize(r)?,
                "budget_bytes" => opts.budget_bytes = Deserialize::deserialize(r)?,
                "strategy" => {
                    if !r.null() {
                        opts.strategy = Deserialize::deserialize(r)?;
                    }
                }
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
}

/// The versioned `interlayer` section of a
/// [`NetworkReport`](crate::engine::NetworkReport): what the residency
/// pass decided and what it bought. Present only when the pass ran;
/// pre-existing reports without the section still deserialize.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterlayerReport {
    /// Schema version ([`INTERLAYER_VERSION`]).
    pub version: u32,
    /// Strategy that produced the resident set (`"greedy"` / `"milp"`).
    pub strategy: String,
    /// Resolved on-chip byte budget the selection respected.
    pub budget_bytes: u64,
    /// Every inter-layer hand-off in execution order, resident or not.
    pub edges: Vec<InterlayerEdgeReport>,
    /// Buffer-occupancy timeline, one step per network entry.
    pub occupancy: Vec<InterlayerOccupancy>,
    /// Edges kept resident.
    pub resident_edges: usize,
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

/// One candidate edge with its engine-resolved costs.
struct Candidate {
    edge: InterlayerEdge,
    /// Tensor footprint while resident (output elements × activation
    /// precision — a completed output quantizes to the next layer's input
    /// width).
    bytes: u64,
    /// DRAM bytes avoided per hand-off instance: producer output share +
    /// consumer input share of the chosen schedules' DRAM traffic.
    saved_per_instance: f64,
}

impl Candidate {
    fn total_saved(&self) -> f64 {
        self.edge.multiplicity as f64 * self.saved_per_instance
    }
}

/// Per-entry view of the (up to three) edges that occupy buffer space
/// while the entry executes.
#[derive(Default, Clone, Copy)]
struct EntryEdges {
    /// Candidate index of the boundary in-edge, if any.
    inbound: Option<usize>,
    /// Candidate index of the internal repeat edge, if any.
    internal: Option<usize>,
    /// Candidate index of the boundary out-edge, if any.
    out: Option<usize>,
}

/// The residency pass: evaluates candidates against the chosen per-layer
/// schedules, selects a resident set within budget, and re-weights the
/// affected layers.
pub(crate) struct InterlayerPass<'a> {
    model: CostModel,
    network: &'a Network,
    /// Per-entry chosen schedule (`None` for failed entries, which take no
    /// part in the pass).
    scheduled: Vec<Option<&'a Scheduled>>,
    budget: u64,
    strategy: InterlayerStrategy,
    candidates: Vec<Candidate>,
    /// Edge-to-entry incidence for the occupancy constraints.
    entry_edges: Vec<EntryEdges>,
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
        let budget = options.resolve_budget(arch);
        let act_prec = arch.precision(DataTensor::Inputs);
        let mut pass = InterlayerPass {
            model: CostModel::new(arch),
            network,
            scheduled,
            budget,
            strategy: options.strategy,
            candidates: Vec::new(),
            entry_edges: vec![EntryEdges::default(); network.layers.len()],
            profiles,
        };
        for edge in network.interlayer_edges() {
            // Failed entries have no schedule to re-weight; skip their
            // edges entirely.
            if pass.profile(edge.producer).is_none() || pass.profile(edge.consumer).is_none() {
                continue;
            }
            let saved_per_instance = pass
                .profile(edge.producer)
                .map_or(0.0, |p| p[DataTensor::Outputs.index()])
                + pass
                    .profile(edge.consumer)
                    .map_or(0.0, |p| p[DataTensor::Inputs.index()]);
            let idx = pass.candidates.len();
            let slot = &mut pass.entry_edges[edge.producer];
            if edge.producer == edge.consumer {
                slot.internal = Some(idx);
            } else {
                slot.out = Some(idx);
                pass.entry_edges[edge.consumer].inbound = Some(idx);
            }
            pass.candidates.push(Candidate {
                edge,
                bytes: edge.elements * act_prec,
                saved_per_instance,
            });
        }
        pass
    }

    fn profile(&self, entry: usize) -> Option<[f64; 3]> {
        self.profiles[entry]
    }

    /// Peak resident bytes held while entry `t` executes under `resident`:
    /// the worst instance of the entry (first holds the in-edge plus its
    /// own internal output, middles hold two internal copies, the last
    /// holds the internal input plus the out-edge).
    fn peak_bytes(&self, t: usize, resident: &[bool]) -> u64 {
        let edges = &self.entry_edges[t];
        let bytes = |slot: Option<usize>| {
            slot.filter(|&i| resident[i])
                .map_or(0, |i| self.candidates[i].bytes)
        };
        let inbound = bytes(edges.inbound);
        let internal = bytes(edges.internal);
        let out = bytes(edges.out);
        let count = self.network.layers[t].count;
        if count == 1 {
            inbound + out
        } else {
            let first = inbound + internal;
            let middle = if count >= 3 { 2 * internal } else { 0 };
            let last = internal + out;
            first.max(middle).max(last)
        }
    }

    /// `true` when admitting candidate `i` keeps every affected entry
    /// within budget.
    fn fits(&self, i: usize, resident: &mut [bool]) -> bool {
        resident[i] = true;
        let e = &self.candidates[i].edge;
        let ok = self.peak_bytes(e.producer, resident) <= self.budget
            && self.peak_bytes(e.consumer, resident) <= self.budget;
        resident[i] = ok;
        ok
    }

    /// Greedy knapsack: admit by savings-per-resident-byte density,
    /// deterministic tie-break by edge order.
    fn select_greedy(&self) -> Vec<bool> {
        let mut order: Vec<usize> = (0..self.candidates.len())
            .filter(|&i| self.candidates[i].total_saved() > 0.0)
            .collect();
        order.sort_by(|&a, &b| {
            let da = self.candidates[a].total_saved() / self.candidates[a].bytes.max(1) as f64;
            let db = self.candidates[b].total_saved() / self.candidates[b].bytes.max(1) as f64;
            db.total_cmp(&da).then(a.cmp(&b))
        });
        let mut resident = vec![false; self.candidates.len()];
        for i in order {
            self.fits(i, &mut resident);
        }
        resident
    }

    /// Exact 0/1 selection: maximize saved DRAM bytes subject to the
    /// per-entry occupancy constraints (each instance class of each entry
    /// is one linear constraint). Falls back to greedy on solver error.
    fn select_milp(&self) -> Vec<bool> {
        let mut milp = Model::new(Sense::Maximize);
        let vars: Vec<_> = self
            .candidates
            .iter()
            .enumerate()
            .map(|(i, _)| milp.add_binary(format!("resident_{i}")))
            .collect();
        let mut objective = LinExpr::new();
        for (i, c) in self.candidates.iter().enumerate() {
            objective.add_term(vars[i], c.total_saved());
        }
        milp.set_objective(objective);
        let budget = self.budget as f64;
        for (t, edges) in self.entry_edges.iter().enumerate() {
            let term = |slot: Option<usize>, scale: f64, expr: &mut LinExpr| {
                if let Some(i) = slot {
                    expr.add_term(vars[i], scale * self.candidates[i].bytes as f64);
                }
            };
            let count = self.network.layers[t].count;
            if count == 1 {
                if edges.inbound.is_some() || edges.out.is_some() {
                    let mut e = LinExpr::new();
                    term(edges.inbound, 1.0, &mut e);
                    term(edges.out, 1.0, &mut e);
                    milp.add_constraint(e, Cmp::Le, budget);
                }
            } else {
                if edges.inbound.is_some() || edges.internal.is_some() {
                    let mut e = LinExpr::new();
                    term(edges.inbound, 1.0, &mut e);
                    term(edges.internal, 1.0, &mut e);
                    milp.add_constraint(e, Cmp::Le, budget);
                }
                if edges.internal.is_some() || edges.out.is_some() {
                    let mut e = LinExpr::new();
                    term(edges.internal, 1.0, &mut e);
                    term(edges.out, 1.0, &mut e);
                    milp.add_constraint(e, Cmp::Le, budget);
                }
                if count >= 3 && edges.internal.is_some() {
                    let mut e = LinExpr::new();
                    term(edges.internal, 2.0, &mut e);
                    milp.add_constraint(e, Cmp::Le, budget);
                }
            }
        }
        match milp.solve() {
            Ok(solution) => vars.iter().map(|&v| solution.value_round(v) == 1).collect(),
            Err(_) => self.select_greedy(),
        }
    }

    /// Run the pass: select the resident set, re-weight the affected
    /// layers and assemble the report section. Also returns the
    /// residency-adjusted totals for entries that scheduled.
    pub(crate) fn run(self) -> InterlayerReport {
        let resident = match self.strategy {
            InterlayerStrategy::Greedy => self.select_greedy(),
            InterlayerStrategy::Milp => self.select_milp(),
        };

        // Per-entry residency instance classes: how many executions of
        // entry t run with (inputs resident, outputs resident).
        let mut classes: Vec<Vec<(u64, bool, bool)>> = Vec::new();
        for (t, edges) in self.entry_edges.iter().enumerate() {
            let on = |slot: Option<usize>| slot.is_some_and(|i| resident[i]);
            let (bi, int, bo) = (on(edges.inbound), on(edges.internal), on(edges.out));
            let count = self.network.layers[t].count;
            let mut groups: Vec<(u64, bool, bool)> = Vec::new();
            if count == 1 {
                groups.push((1, bi, bo));
            } else {
                groups.push((1, bi, int));
                if count > 2 {
                    groups.push((count - 2, int, int));
                }
                groups.push((1, int, bo));
            }
            classes.push(groups);
        }

        // Re-evaluate each entry's chosen schedule per residency class.
        // Entries with no resident edge evaluate once with the plain
        // model, so baseline and adjusted totals come from the same
        // evaluator and the baseline matches Σ count × profile exactly.
        let mut baseline_offchip = 0.0;
        let mut offchip = 0.0;
        let mut total_latency = 0.0;
        let mut total_energy = 0.0;
        for (t, entry) in self.network.layers.iter().enumerate() {
            let Some(scheduled) = self.scheduled[t] else {
                continue;
            };
            let Some(profile) = self.profile(t) else {
                continue;
            };
            baseline_offchip += entry.count as f64 * profile.iter().sum::<f64>();
            for &(instances, rin, rout) in &classes[t] {
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
            .candidates
            .iter()
            .enumerate()
            .map(|(i, c)| InterlayerEdgeReport {
                producer: self.network.layers[c.edge.producer].name.clone(),
                consumer: self.network.layers[c.edge.consumer].name.clone(),
                multiplicity: c.edge.multiplicity,
                tensor_bytes: c.bytes,
                resident: resident[i],
                saved_bytes: if resident[i] { c.total_saved() } else { 0.0 },
            })
            .collect();
        let occupancy = self
            .network
            .layers
            .iter()
            .enumerate()
            .map(|(t, entry)| InterlayerOccupancy {
                entry: entry.name.clone(),
                peak_bytes: self.peak_bytes(t, &resident),
            })
            .collect();

        InterlayerReport {
            version: INTERLAYER_VERSION,
            strategy: self.strategy.name().to_string(),
            budget_bytes: self.budget,
            edges,
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

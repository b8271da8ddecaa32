//! Deriving NoC traffic from a schedule: which tensors move, to which PEs,
//! how often.
//!
//! The temporal loops at the NoC and DRAM levels form an odometer. At each
//! step, the tiles that must be re-sent are exactly those of tensors with a
//! relevant loop inside the carry chain — the paper encodes the same
//! structure as the `Y` prefix indicator of Eq. 9. Steps therefore fall
//! into `T+1` *iteration types* (one per carry-chain length plus the
//! startup iteration), each with an exact occurrence count and a fixed
//! transfer set.

use cosa_spec::{Arch, DataTensor, Layer, Schedule};

use crate::mesh::PacketSpec;

/// One class of loop iterations with identical NoC/DRAM transfer sets.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationType {
    /// How many iterations of the layer fall in this class (fractional
    /// after the output fresh/revisit split).
    pub count: f64,
    /// Tensors whose PE tiles are re-sent over the NoC this iteration.
    pub resend: [bool; DataTensor::COUNT],
    /// Whether previously-evicted partial sums are read back down.
    pub oa_readback: bool,
    /// Whether PEs write their output tiles back to the global buffer.
    pub oa_writeback: bool,
    /// DRAM bytes moved for this iteration (weight streaming + global
    /// buffer refills + output spills).
    pub dram_bytes: f64,
}

/// The complete traffic characterization of a schedule.
#[derive(Debug, Clone)]
pub struct TrafficPlan {
    /// Iteration classes with exact counts.
    pub types: Vec<IterationType>,
    /// Temporal iterations below the NoC level = PE busy cycles per
    /// iteration.
    pub compute_per_iter: u64,
    /// Downstream packet sets per tensor (multicast groups precomputed).
    pub down_packets: [Vec<PacketSpec>; DataTensor::COUNT],
    /// Output writeback packets (one per used PE).
    pub up_packets: Vec<PacketSpec>,
    /// Number of PEs with work mapped to them.
    pub pes_used: usize,
    /// Per-PE tile bytes for each tensor.
    pub tile_bytes: [u64; DataTensor::COUNT],
}

impl TrafficPlan {
    /// Characterize `schedule` (assumed valid) on `arch` for `layer`.
    pub fn build(layer: &Layer, arch: &Arch, schedule: &Schedule) -> TrafficPlan {
        let noc = arch.noc_level();
        let gb_node = 0usize;
        let mesh_x = arch.noc().mesh_x;

        // --- spatial layout: linearize the NoC-level spatial loops -----
        let spatial: Vec<(cosa_spec::Dim, u64)> = schedule.levels()[noc]
            .loops
            .iter()
            .filter(|l| l.spatial)
            .map(|l| (l.dim, l.bound))
            .collect();
        let pes_used: usize = spatial.iter().map(|(_, b)| *b as usize).product();

        // Per-PE tile bytes (exact halo for inputs).
        let below = schedule.tile_below(noc);
        let mut tile_bytes = [0u64; DataTensor::COUNT];
        for v in DataTensor::ALL {
            tile_bytes[v.index()] = v.tile_elements(&below, layer) * arch.precision(v);
        }
        let flit = arch.noc().flit_bytes.max(1);
        let flits_of = |bytes: u64| bytes.div_ceil(flit) + 1; // +1 header

        // Multicast groups: PEs sharing identical relevant spatial
        // coordinates receive the same tile.
        let mut down_packets: [Vec<PacketSpec>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for v in DataTensor::ALL {
            let mut groups: std::collections::BTreeMap<Vec<u64>, Vec<usize>> =
                std::collections::BTreeMap::new();
            for lin in 0..pes_used.max(1) {
                // Mixed-radix digits of the spatial index.
                let mut rem = lin as u64;
                let mut key = Vec::new();
                for (d, b) in &spatial {
                    let digit = rem % b;
                    rem /= b;
                    if v.relevant_to(*d) {
                        key.push(digit);
                    }
                }
                // PE linear index → mesh node (row-major).
                let node = lin % (mesh_x * arch.noc().mesh_y);
                groups.entry(key).or_default().push(node);
            }
            for (_, mut dests) in groups {
                dests.dedup();
                down_packets[v.index()].push(PacketSpec {
                    src: gb_node,
                    dests,
                    flits: flits_of(tile_bytes[v.index()]),
                });
            }
        }
        // Outputs leaving a PE are 24-bit partial sums while reduction
        // loops (over R, S, C) remain at or above the NoC level; once the
        // sum is complete they quantize to the activation width.
        let reduction_above_pe = schedule.flat_loops().iter().any(|(lvl, lp)| {
            *lvl >= noc && !DataTensor::Outputs.relevant_to(lp.dim) && lp.bound > 1
        });
        let oa_up_bytes = {
            let elems = DataTensor::Outputs.tile_elements(&below, layer);
            let prec = if reduction_above_pe {
                arch.precision(DataTensor::Outputs)
            } else {
                arch.precision(DataTensor::Inputs)
            };
            elems * prec
        };
        let up_packets: Vec<PacketSpec> = (0..pes_used.max(1))
            .map(|lin| PacketSpec {
                src: lin % (mesh_x * arch.noc().mesh_y),
                dests: vec![gb_node],
                flits: flits_of(oa_up_bytes),
            })
            .collect();

        // --- odometer positions: NoC temporal loops (inner) then DRAM ---
        let seq: Vec<(cosa_spec::Dim, u64)> = schedule.levels()[noc]
            .loops
            .iter()
            .rev()
            .filter(|l| !l.spatial)
            .map(|l| (l.dim, l.bound))
            .chain(
                schedule.levels()[arch.dram_level()]
                    .loops
                    .iter()
                    .rev()
                    .filter(|l| !l.spatial)
                    .map(|l| (l.dim, l.bound)),
            )
            .collect();
        let t_noc = schedule.levels()[noc]
            .loops
            .iter()
            .filter(|l| !l.spatial)
            .count();
        let n_total: u64 = seq.iter().map(|(_, b)| b).product();

        // DRAM byte helpers. Output tiles spilled past the global buffer
        // quantize to activation width once no reduction loop remains at
        // the DRAM level.
        let gb_tile = schedule.stored_tile(noc);
        let reduction_at_dram = schedule.levels()[arch.dram_level()]
            .loops
            .iter()
            .any(|lp| !DataTensor::Outputs.relevant_to(lp.dim) && lp.bound > 1);
        let gb_bytes = |v: DataTensor| -> f64 {
            let prec = if v == DataTensor::Outputs && !reduction_at_dram {
                arch.precision(DataTensor::Inputs)
            } else {
                arch.precision(v)
            };
            (v.tile_elements(&gb_tile, layer) * prec) as f64
        };
        // Weights stream from DRAM: one copy of each distinct tile.
        let w_dram_bytes: f64 = down_packets[DataTensor::Weights.index()].len() as f64
            * tile_bytes[DataTensor::Weights.index()] as f64;

        // --- iteration types ------------------------------------------
        let mut types = Vec::new();
        // Startup iteration: everything is sent once, no writeback yet.
        types.push(IterationType {
            count: 1.0,
            resend: [true, true, false],
            oa_readback: false,
            oa_writeback: false,
            dram_bytes: w_dram_bytes + gb_bytes(DataTensor::Inputs) + gb_bytes(DataTensor::Outputs),
        });

        let mut oa_changes = 0.0f64;
        let mut raw = Vec::new();
        let mut prefix: u64 = 1;
        for (z, (dim_z, b_z)) in seq.iter().enumerate() {
            let _ = dim_z;
            prefix *= b_z;
            let count = (n_total / prefix) as f64 * (b_z - 1) as f64;
            if count == 0.0 {
                continue;
            }
            let mut resend = [false; 3];
            for v in DataTensor::ALL {
                resend[v.index()] = seq[..=z].iter().any(|(d, _)| v.relevant_to(*d));
            }
            let mut dram = 0.0;
            if resend[DataTensor::Weights.index()] {
                dram += w_dram_bytes;
            }
            for v in [DataTensor::Inputs, DataTensor::Outputs] {
                let refill = z >= t_noc && seq[t_noc..=z].iter().any(|(d, _)| v.relevant_to(*d));
                if refill {
                    dram += gb_bytes(v);
                    if v == DataTensor::Outputs {
                        dram += gb_bytes(v); // spill + refill
                    }
                }
            }
            if resend[DataTensor::Outputs.index()] {
                oa_changes += count;
            }
            raw.push(IterationType {
                count,
                resend,
                oa_readback: false,
                oa_writeback: resend[DataTensor::Outputs.index()],
                dram_bytes: dram,
            });
        }

        // Fresh vs revisited output tiles: a revisited tile must be read
        // back before accumulation continues. The exact schedule of
        // revisits depends on outer odometer digits; we split each
        // OA-changing class by the global revisit fraction.
        let oa_distinct: f64 = seq
            .iter()
            .filter(|(d, _)| DataTensor::Outputs.relevant_to(*d))
            .map(|(_, b)| *b as f64)
            .product();
        let oa_fills = oa_changes + 1.0;
        let revisit_frac = ((oa_fills - oa_distinct) / oa_fills).max(0.0);
        for t in raw {
            if t.oa_writeback && revisit_frac > 0.0 {
                let mut with_rb = t.clone();
                with_rb.count = t.count * revisit_frac;
                with_rb.oa_readback = true;
                // Readbacks come from the global buffer: no DRAM bytes.
                let mut without = t;
                without.count *= 1.0 - revisit_frac;
                if with_rb.count > 0.0 {
                    types.push(with_rb);
                }
                if without.count > 0.0 {
                    types.push(without);
                }
            } else {
                types.push(t);
            }
        }

        TrafficPlan {
            types,
            compute_per_iter: schedule.temporal_product_below(noc),
            down_packets,
            up_packets,
            pes_used: pes_used.max(1),
            tile_bytes,
        }
    }

    /// Total loop iterations across all types (equals the product of the
    /// NoC- and DRAM-level temporal bounds).
    pub fn total_iterations(&self) -> f64 {
        self.types.iter().map(|t| t.count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosa_spec::{Dim, Loop};

    fn arch() -> Arch {
        Arch::simba_baseline()
    }

    #[test]
    fn counts_sum_to_total_iterations() {
        let arch = arch();
        let layer = Layer::conv("t", 1, 1, 4, 1, 8, 16, 1, 1, 1);
        let mut s = Schedule::new(arch.num_levels());
        s.push(arch.noc_level(), Loop::spatial(Dim::K, 16));
        s.push(arch.noc_level(), Loop::temporal(Dim::C, 2));
        s.push(arch.noc_level(), Loop::temporal(Dim::P, 4)); // inner
        s.push(arch.dram_level(), Loop::temporal(Dim::C, 4));
        assert!(s.is_valid(&layer, &arch));
        let plan = TrafficPlan::build(&layer, &arch, &s);
        // N_total = 2*4*4 = 32 iterations.
        assert!((plan.total_iterations() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn weight_multicast_groups_by_relevance() {
        // P=4 and K=4 spatial: weights are unicast across K (4 groups),
        // multicast across P (4 PEs per group).
        let arch = arch();
        let layer = Layer::conv("t", 1, 1, 4, 1, 4, 4, 1, 1, 1);
        let mut s = Schedule::new(arch.num_levels());
        s.push(arch.noc_level(), Loop::spatial(Dim::P, 4));
        s.push(arch.noc_level(), Loop::spatial(Dim::K, 4));
        s.push(arch.dram_level(), Loop::temporal(Dim::C, 4));
        let plan = TrafficPlan::build(&layer, &arch, &s);
        let w = &plan.down_packets[DataTensor::Weights.index()];
        assert_eq!(w.len(), 4, "one weight packet per K group");
        assert!(
            w.iter().all(|p| p.dests.len() == 4),
            "each multicast to 4 PEs"
        );
        // Inputs are irrelevant to K: 4 groups of 4 by symmetry.
        let ia = &plan.down_packets[DataTensor::Inputs.index()];
        assert_eq!(ia.len(), 4);
        // Outputs unicast per PE? P and K both relevant → 16 groups.
        let oa = &plan.down_packets[DataTensor::Outputs.index()];
        assert_eq!(oa.len(), 16);
    }

    #[test]
    fn inner_irrelevant_loop_reuses_weights() {
        // NoC temporal: P inner, C outer → weight resends only on C steps.
        let arch = arch();
        let layer = Layer::conv("t", 1, 1, 4, 1, 4, 1, 1, 1, 1);
        let mut s = Schedule::new(arch.num_levels());
        s.push(arch.noc_level(), Loop::temporal(Dim::C, 4));
        s.push(arch.noc_level(), Loop::temporal(Dim::P, 4)); // inner
        let plan = TrafficPlan::build(&layer, &arch, &s);
        let w_idx = DataTensor::Weights.index();
        let resend_w: f64 = plan
            .types
            .iter()
            .filter(|t| t.resend[w_idx])
            .map(|t| t.count)
            .sum();
        // 16 iterations; weights change only when C advances: 3 carry steps
        // plus startup = 4 sends.
        assert!((resend_w - 4.0).abs() < 1e-9, "weight sends {resend_w}");
    }

    #[test]
    fn startup_type_sends_everything() {
        let arch = arch();
        let layer = Layer::conv("t", 1, 1, 2, 1, 2, 2, 1, 1, 1);
        let mut s = Schedule::new(arch.num_levels());
        for (d, b) in [(Dim::P, 2), (Dim::C, 2), (Dim::K, 2)] {
            s.push(arch.dram_level(), Loop::temporal(d, b));
        }
        let plan = TrafficPlan::build(&layer, &arch, &s);
        let t0 = &plan.types[0];
        assert_eq!(t0.count, 1.0);
        assert!(t0.resend[0] && t0.resend[1]);
        assert!(t0.dram_bytes > 0.0);
    }
}

//! # cosa-noc
//!
//! A cycle-level network-on-chip simulator for spatial DNN accelerators —
//! the second evaluation platform of the paper (Sec. IV-A), standing in for
//! the Matchlib-router + DRAMSim2 testbed.
//!
//! The simulator models:
//!
//! * a resizable 2-D mesh of input-buffered wormhole routers with X-Y
//!   routing and tree **multicast** (Table V, *Network* column);
//! * a global-buffer/DRAM interface node injecting tensor tiles into the
//!   mesh and collecting output partial sums (with reduction traffic from
//!   spatially-mapped irrelevant dimensions, Fig. 5c);
//! * a DRAM model with first-access latency and sustained bandwidth;
//! * double-buffered PEs that overlap compute with the next tile transfer.
//!
//! Executing every loop iteration flit-by-flit would be intractable for
//! full layers, so the simulator exploits the odometer structure of the
//! loop nest: iterations of the NoC- and DRAM-level loops fall into a small
//! number of *iteration types* (indexed by the carry-chain length of the
//! odometer step — exactly the `Y` prefix indicator of the paper's Eq. 9).
//! Each distinct type's transfer set is simulated cycle-by-cycle at flit
//! granularity on the mesh; the layer latency composes the per-type
//! durations with their exact occurrence counts. A layer's distinct
//! transfer sets are independent, so they are simulated concurrently on up
//! to `available_parallelism` threads (the caller among them, and the
//! caller alone when the sets step too few cycles to pay for a thread); the
//! composition runs in plan order afterwards, so the verdict does not
//! depend on the thread count. Within a type the
//! simulation is cycle-accurate, including link serialization, head-of-line
//! blocking, multicast forking and hop latencies — the congestion effects
//! Timeloop's bandwidth model misses, which is the point of Fig. 10.
//!
//! While long packets stream, the mesh state repeats exactly every few
//! priority rotations. [`MeshSim`] detects such a window by comparing the
//! whole state, word by word until the first difference, with the states
//! of its recent probes since the last head or tail injection, and jumps
//! over as many repeats as leave every source's packet its tail flit to
//! inject, so a million-flit packet takes under a hundred stepped cycles.
//! A cycle it does step visits only ports that can move: a port blocked by
//! a full downstream buffer or another packet's grant sleeps until that
//! changes. The cycle counts are those of stepping every port every cycle,
//! checked against the replaced simulator in the crate's tests.
//!
//! # Example
//!
//! ```
//! use cosa_spec::{Arch, Layer};
//! use cosa_core::CosaScheduler;
//! use cosa_noc::NocSimulator;
//!
//! let arch = Arch::simba_baseline();
//! let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
//! let cosa = CosaScheduler::new(&arch).with_deterministic_limits(300);
//! let schedule = cosa.schedule(&layer)?.schedule;
//! let report = NocSimulator::new(&arch).simulate(&layer, &schedule)?;
//! assert!(report.total_cycles >= report.compute_cycles as f64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod mesh;
mod sim;
mod traffic;

pub use mesh::{MeshConfig, MeshSim, PacketSpec};
pub use sim::{NocReport, NocSimulator, NocSummary, TypeTiming};
pub use traffic::{IterationType, TrafficPlan};

//! Trajectory pin: the CDCL search is a pure function of the formula, so
//! its counters are literals. A change to `crates/sat` that claims to be
//! speed-only must leave every number below untouched; a change that
//! moves one has changed the search (and possibly which of several
//! equal-objective optima is returned) and has to say so.
//!
//! The six shapes cover the solver's regimes: a few-conflict solve, a
//! prime-heavy matmul, two small 1x1 convs, and two 3x3 convs whose
//! searches cross the first `reduce_db` (≈ 4 360 conflicts there) and the
//! 1e100 activity rescale (4 490 conflicts), the longer one both twice.
//! Every search closes on the exact bound (`cosa_core::exact`) at the
//! model the refutation used to prove, so the objective bits are the
//! refutation's and the counters stop at that model.

use cosa_sat::SatScheduler;
use cosa_spec::{Arch, Layer};

/// `(conflicts, decisions, propagations, restarts, objective bits)`.
type Pin = (u64, u64, u64, u64, u64);

fn pinned() -> Vec<(Layer, Pin)> {
    let conv = |r, p, c, k| {
        Layer::conv(
            format!("conv_{r}x{r}_{p}x{p}_{c}_{k}"),
            r,
            r,
            p,
            p,
            c,
            k,
            1,
            1,
            1,
        )
    };
    vec![
        (
            Layer::matmul("mm_16x16x16", 16, 16, 16),
            (1258, 2500, 41638, 3, 0xc026_6a91_0dd6_8fd1),
        ),
        (
            Layer::matmul("mm_127x64x31", 127, 64, 31),
            (255, 610, 7806, 0, 0xc021_71f1_adaa_b5c6),
        ),
        (
            conv(1, 8, 16, 16),
            (2824, 5292, 106_102, 11, 0xc027_cd75_3dc6_3374),
        ),
        (
            conv(1, 14, 4, 64),
            (3373, 5469, 129_717, 14, 0xc026_4861_f0d2_400f),
        ),
        (
            conv(3, 14, 1, 32),
            (7852, 11_167, 255_927, 37, 0xc026_4861_f0d2_4016),
        ),
        (
            conv(3, 4, 16, 32),
            (9070, 14_861, 317_163, 39, 0xc023_86a1_a689_1dab),
        ),
    ]
}

#[test]
fn search_trajectory_is_pinned() {
    let arch = Arch::simba_baseline();
    let sat = SatScheduler::new(&arch).with_conflict_budget(None);
    for (layer, want) in pinned() {
        let a = sat.schedule(&layer).expect("sat proves an optimum");
        let got: Pin = (
            a.stats.conflicts,
            a.stats.decisions,
            a.stats.propagations,
            a.stats.restarts,
            a.objective.to_bits(),
        );
        assert!(
            a.proven_optimal,
            "{}: unbounded budget proves",
            layer.name()
        );
        assert_eq!(got, want, "{}: search trajectory moved", layer.name());
        let b = sat.schedule(&layer).expect("second run");
        assert_eq!(
            a.schedule,
            b.schedule,
            "{}: second run differs",
            layer.name()
        );
        assert_eq!(
            a.stats,
            b.stats,
            "{}: second run's counters differ",
            layer.name()
        );
    }
}

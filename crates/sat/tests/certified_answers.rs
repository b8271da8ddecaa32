//! Answer pin for the root-bound certificate: every shape below returns
//! exactly the schedule the refutation-only search returned — counts,
//! ranks and objective bits, recorded in `fixtures/certified_answers.txt`
//! before the certificate existed — and exactly the named shapes close on
//! the root bound instead of a refutation.
//!
//! The shapes are the ten of the benchmark's `sat_proof_cold`, the five of
//! `trajectory.rs` (three of them shared) and `conv_3x3_6x6_8_8`.

use cosa_sat::{Proof, SatScheduler};
use cosa_spec::{Arch, Layer};

const FIXTURE: &str = include_str!("fixtures/certified_answers.txt");

/// The shapes whose search closes on the root bound; all others refute.
const ROOT_CERTIFIED: [&str; 3] = [
    "conv_3x3_4x4_16_32",
    "conv_3x3_8x8_8_16",
    "conv_3x3_6x6_8_8",
];

fn shapes() -> Vec<Layer> {
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
    let mm = |c, k, n| Layer::matmul(format!("mm_{c}x{k}x{n}"), c, k, n);
    vec![
        mm(64, 64, 64),
        mm(127, 64, 31),
        conv(1, 7, 64, 64),
        mm(64, 192, 32),
        mm(32, 64, 64),
        mm(64, 256, 32),
        conv(3, 14, 1, 32),
        conv(1, 14, 4, 64),
        conv(3, 4, 16, 32),
        conv(3, 8, 8, 16),
        mm(16, 16, 16),
        conv(1, 8, 16, 16),
        conv(3, 6, 8, 8),
    ]
}

/// One fixture line: `<layer> <objective bits> <ranks> <counts>`, ranks
/// comma-separated in `Dim::ALL` order, counts one `;`-separated entry per
/// factor group holding a `spatial:temporal` pair per level.
fn recorded(name: &str) -> (u64, Vec<usize>, Vec<Vec<[u32; 2]>>) {
    let line = FIXTURE
        .lines()
        .find(|l| l.split(' ').next() == Some(name))
        .unwrap_or_else(|| panic!("{name}: not in the fixture"));
    let fields: Vec<&str> = line.split(' ').collect();
    let [_, bits, ranks, counts] = fields[..] else {
        panic!("{name}: malformed fixture line `{line}`");
    };
    let bits = u64::from_str_radix(bits.trim_start_matches("0x"), 16).expect("hex bits");
    let ranks = ranks.split(',').map(|r| r.parse().expect("rank")).collect();
    let counts = counts
        .split(';')
        .map(|group| {
            group
                .split(',')
                .map(|level| {
                    let (s, t) = level.split_once(':').expect("spatial:temporal");
                    [s.parse().expect("count"), t.parse().expect("count")]
                })
                .collect()
        })
        .collect();
    (bits, ranks, counts)
}

#[test]
fn answers_match_the_refutation_only_search() {
    let arch = Arch::simba_baseline();
    let sat = SatScheduler::new(&arch).with_conflict_budget(None);
    for layer in shapes() {
        let name = layer.name();
        let a = sat.schedule(&layer).expect("sat proves an optimum");
        let (bits, ranks, counts) = recorded(name);
        assert_eq!(a.objective.to_bits(), bits, "{name}: objective moved");
        assert_eq!(a.assignment.ranks.to_vec(), ranks, "{name}: ranks moved");
        assert_eq!(a.assignment.counts, counts, "{name}: counts moved");
        assert!(a.proven_optimal, "{name}: unbounded budget proves");
        let want = if ROOT_CERTIFIED.contains(&name) {
            Proof::RootBound
        } else {
            Proof::Refutation
        };
        assert_eq!(a.proof, Some(want), "{name}: closing proof");
        if want == Proof::RootBound {
            let root = a.root_bound.expect("a root-certified search has the bound");
            assert!(
                (a.objective - root).abs() <= 1e-7 * a.objective.abs(),
                "{name}: root bound {root} vs optimum {}",
                a.objective
            );
        }
    }
}

//! Pin of the three lowerings of the CoSA program: for every shape below,
//! digests of the MILP models (`build`, `build_with_kind(.., Balanced)`,
//! `build_tiling_only`), of the SAT clause/PB database right after
//! `SatProgram::build` together with the objective it tightens on, and the
//! bits of `exact::exact_optimum`. The fixture was recorded before the
//! three were lowered from one statement and must not change: a moved
//! line is a moved search trajectory.
//!
//! The shapes are the seven of the benchmark's `milp_cnn_cold`, the
//! thirteen of `tests/certified_answers.rs` and `3_3_14_14_16_2` (N = 4,
//! stride 2) on `simba_big_buffers`, each under two weight sets.

use cosa_core::{exact, CosaProgram, ObjectiveKind, ObjectiveWeights};
use cosa_spec::canon::digest128_hex;
use cosa_spec::workloads::GPT_MINI;
use cosa_spec::{Arch, Layer};

use crate::SatProgram;

const FIXTURE: &str = include_str!("../tests/fixtures/lowerings.txt");

fn shapes() -> Vec<(Arch, Layer)> {
    let paper = |name: &str| Layer::parse_paper_name(name).expect("suite layer name");
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
    let baseline = [
        paper("3_7_512_512_1"),
        paper("3_14_1_192_2"),
        paper("1_7_1024_2048_2"),
        paper("1_14_576_96_1"),
        paper("1_1_2048_1000_1"),
        GPT_MINI.attn_score(),
        GPT_MINI.ffn_up(),
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
    ];
    let mut out: Vec<(Arch, Layer)> = baseline
        .into_iter()
        .map(|l| (Arch::simba_baseline(), l))
        .collect();
    out.push((
        Arch::simba_big_buffers(),
        Layer::conv("3_3_14_14_16_2", 3, 3, 14, 14, 16, 2, 4, 2, 2),
    ));
    out
}

/// One fixture line: `<arch> <layer> <weights> <build> <balanced>
/// <tiling-only> <sat> <exact optimum bits or none>`.
fn line(arch: &Arch, layer: &Layer, tag: &str, weights: ObjectiveWeights) -> String {
    let milp = |p: CosaProgram| digest128_hex(format!("{:?}", p.model()).as_bytes());
    let sat = SatProgram::build(layer, arch, weights);
    let exact = exact::exact_optimum(layer, arch, weights)
        .map(f64::to_bits)
        .map_or("none".to_string(), |b| format!("{b:#x}"));
    format!(
        "{} {} {tag} {} {} {} {} {exact}",
        arch.name(),
        layer.name(),
        milp(CosaProgram::build(layer, arch, weights)),
        milp(CosaProgram::build_with_kind(
            layer,
            arch,
            weights,
            ObjectiveKind::Balanced
        )),
        milp(CosaProgram::build_tiling_only(layer, arch, weights)),
        digest128_hex(sat.encoding_dump().as_bytes()),
    )
}

#[test]
fn lowerings_are_bit_identical_to_the_recorded_ones() {
    let weight_sets = [
        ("default", ObjectiveWeights::default()),
        (
            "1,4,0.5",
            ObjectiveWeights {
                w_util: 1.0,
                w_comp: 4.0,
                w_traf: 0.5,
            },
        ),
    ];
    let mut lines = Vec::new();
    for (arch, layer) in shapes() {
        for (tag, weights) in weight_sets {
            lines.push(line(&arch, &layer, tag, weights));
        }
    }
    let recorded: Vec<&str> = FIXTURE.lines().collect();
    let moved: Vec<&String> = lines
        .iter()
        .filter(|l| !recorded.contains(&l.as_str()))
        .collect();
    assert!(
        moved.is_empty() && recorded.len() == lines.len(),
        "{} of {} lowerings moved (fixture has {} lines):\n{}",
        moved.len(),
        lines.len(),
        recorded.len(),
        lines.join("\n")
    );
}

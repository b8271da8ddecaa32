//! Property-based verification of the MILP solver against brute force.
//!
//! Small random integer programs are solved both by `cosa-milp` and by
//! exhaustive enumeration of the integer grid; the solver must agree on
//! feasibility and on the optimal objective, and any solution it reports
//! must satisfy the model. A scheduling-sized program under a node limit
//! checks that the search repeats itself exactly.

use cosa_milp::{Cmp, LinExpr, MilpError, Model, Sense, SolveOptions, SolveStats, Status};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomIp {
    num_vars: usize,
    ub: i64,
    coeffs: Vec<Vec<i64>>, // per-constraint coefficients
    rhs: Vec<i64>,
    cmps: Vec<u8>,
    obj: Vec<i64>,
    maximize: bool,
}

fn random_ip() -> impl Strategy<Value = RandomIp> {
    (2usize..=6, 1i64..=4, 1usize..=4, any::<bool>()).prop_flat_map(
        |(num_vars, ub, num_cons, maximize)| {
            let coeffs =
                prop::collection::vec(prop::collection::vec(-4i64..=4, num_vars), num_cons);
            let rhs = prop::collection::vec(-6i64..=12, num_cons);
            let cmps = prop::collection::vec(0u8..=2, num_cons);
            let obj = prop::collection::vec(-5i64..=5, num_vars);
            (coeffs, rhs, cmps, obj).prop_map(move |(coeffs, rhs, cmps, obj)| RandomIp {
                num_vars,
                ub,
                coeffs,
                rhs,
                cmps,
                obj,
                maximize,
            })
        },
    )
}

/// Brute-force optimum over the integer grid `[0, ub]^n`, or `None` if
/// infeasible.
fn brute_force(ip: &RandomIp) -> Option<i64> {
    let mut best: Option<i64> = None;
    let n = ip.num_vars;
    let base = (ip.ub + 1) as usize;
    let total = base.pow(n as u32);
    for idx in 0..total {
        let mut x = vec![0i64; n];
        let mut rem = idx;
        for xi in x.iter_mut() {
            *xi = (rem % base) as i64;
            rem /= base;
        }
        let ok = ip
            .coeffs
            .iter()
            .zip(&ip.rhs)
            .zip(&ip.cmps)
            .all(|((row, rhs), cmp)| {
                let lhs: i64 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
                match cmp {
                    0 => lhs <= *rhs,
                    1 => lhs >= *rhs,
                    _ => lhs == *rhs,
                }
            });
        if ok {
            let val: i64 = ip.obj.iter().zip(&x).map(|(a, b)| a * b).sum();
            best = Some(match best {
                None => val,
                Some(b) if ip.maximize => b.max(val),
                Some(b) => b.min(val),
            });
        }
    }
    best
}

fn build_model(ip: &RandomIp) -> Model {
    let sense = if ip.maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut m = Model::new(sense);
    let vars: Vec<_> = (0..ip.num_vars)
        .map(|i| m.add_integer(format!("x{i}"), 0.0, ip.ub as f64))
        .collect();
    for ((row, rhs), cmp) in ip.coeffs.iter().zip(&ip.rhs).zip(&ip.cmps) {
        let mut e = LinExpr::new();
        for (v, a) in vars.iter().zip(row) {
            e.add_term(*v, *a as f64);
        }
        let cmp = match cmp {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        m.add_constraint(e, cmp, *rhs as f64);
    }
    let mut obj = LinExpr::new();
    for (v, a) in vars.iter().zip(&ip.obj) {
        obj.add_term(*v, *a as f64);
    }
    m.set_objective(obj);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_matches_brute_force(ip in random_ip()) {
        let expected = brute_force(&ip);
        let model = build_model(&ip);
        // The default node limit is far beyond these trees: every answer
        // is a proof, reached through warm-started node LPs and dives.
        match (model.solve(), expected) {
            (Ok(sol), Some(best)) => {
                prop_assert_eq!(sol.status(), Status::Optimal);
                prop_assert!(
                    (sol.objective() - best as f64).abs() < 1e-6,
                    "solver found {} but brute force found {best}",
                    sol.objective()
                );
                prop_assert!(model.is_feasible(sol.values(), 1e-6));
            }
            (Err(MilpError::Infeasible), None) => {}
            (got, want) => {
                prop_assert!(false, "solver {got:?} vs brute force {want:?}");
            }
        }
    }

    #[test]
    fn lp_relaxation_bounds_integer_optimum(ip in random_ip()) {
        // The LP relaxation must never be worse than the integer optimum.
        if let Some(best) = brute_force(&ip) {
            let model = build_model(&ip);
            let lp = cosa_milp::simplex::LpProblem::from_model(&model);
            if let Ok(cosa_milp::simplex::LpResult::Optimal(sol)) = lp.solve(20_000) {
                // LP objective is minimize-form; convert.
                let lp_obj = lp.sense_flip() * sol.objective;
                if ip.maximize {
                    prop_assert!(lp_obj >= best as f64 - 1e-6, "lp {lp_obj} < int {best}");
                } else {
                    prop_assert!(lp_obj <= best as f64 + 1e-6, "lp {lp_obj} > int {best}");
                }
            }
        }
    }
}

/// A program shaped like CoSA's (Eq. 1–12) and about its size, with a
/// feasible seed: every one of 40 prime factors goes to exactly one of 6
/// levels, spatially or temporally; per-level fan-out rows and cumulative
/// per-tensor capacity rows limit the log-sizes; per tensor one level is
/// selected (one-hot) whose temporal traffic bounds a continuous term
/// through big-M rows. 498 binaries, 18 continuous variables, 82 rows and
/// a fractional relaxation.
// The loop indices are the formulation's subscripts (factor, level, tensor).
#[allow(clippy::needless_range_loop)]
fn scheduling_program() -> (Model, Vec<f64>) {
    const FACTORS: usize = 40;
    const LEVELS: usize = 6;
    const TENSORS: usize = 3;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut draw = move |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    let mut m = Model::new(Sense::Minimize);
    let log_size: Vec<f64> = (0..FACTORS)
        .map(|_| [2.0f64, 3.0, 5.0, 7.0][draw(4) as usize].log2())
        .collect();
    let relevant: Vec<[bool; TENSORS]> = (0..FACTORS)
        .map(|_| {
            let skip = draw(TENSORS as u64) as usize;
            std::array::from_fn(|t| t != skip)
        })
        .collect();
    // x[f][l][0] spatial, x[f][l][1] temporal.
    let x: Vec<Vec<[_; 2]>> = (0..FACTORS)
        .map(|f| {
            (0..LEVELS)
                .map(|l| [0, 1].map(|k| m.add_binary(format!("x{f}_{l}_{k}"))))
                .collect()
        })
        .collect();
    for row in &x {
        m.add_constraint(LinExpr::sum(row.iter().flatten().copied()), Cmp::Eq, 1.0);
    }
    let total: f64 = log_size.iter().sum();
    for l in 0..LEVELS {
        let mut fanout = LinExpr::new();
        for f in 0..FACTORS {
            fanout.add_term(x[f][l][0], log_size[f]);
        }
        m.add_constraint(fanout, Cmp::Le, if l % 2 == 1 { 6.0 } else { 0.0 });
    }
    let mut objective = LinExpr::new();
    for l in 0..LEVELS - 1 {
        for t in 0..TENSORS {
            // What the levels up to l hold of tensor t, against a capacity
            // that may be exceeded at a price (so every assignment within
            // the fan-outs is feasible and the seed below is one of many).
            let spill = m.add_continuous(format!("spill{l}_{t}"), 0.0, total);
            let mut held = LinExpr::from(spill) * -1.0;
            for f in (0..FACTORS).filter(|&f| relevant[f][t]) {
                for inner in x[f].iter().take(l + 1) {
                    held.add_term(inner[0], log_size[f]);
                    held.add_term(inner[1], log_size[f]);
                }
            }
            let share = (l + 1) as f64 / LEVELS as f64;
            m.add_constraint(held, Cmp::Le, total * share * (0.35 + 0.1 * t as f64));
            objective.add_term(spill, 2.0);
        }
    }
    for f in 0..FACTORS {
        for l in 0..LEVELS {
            // Spatial placement is free, temporal loops cost more the
            // further out they run.
            objective.add_term(x[f][l][0], -0.5 * log_size[f]);
            objective.add_term(x[f][l][1], 0.1 * (l + 1) as f64 * log_size[f]);
        }
    }
    // Everything temporal at the outermost level, which no capacity row
    // covers, and each tensor's traffic read there: feasible by
    // construction, like the seed CoSA hands its joint program.
    let mut seeded_at = Vec::new();
    for row in &x {
        seeded_at.push((row[LEVELS - 1][1], 1.0));
    }
    for t in 0..TENSORS {
        let traffic = m.add_continuous(format!("traffic{t}"), 0.0, total);
        let select: Vec<_> = (0..LEVELS)
            .map(|l| m.add_binary(format!("select{t}_{l}")))
            .collect();
        m.add_constraint(LinExpr::sum(select.iter().copied()), Cmp::Eq, 1.0);
        for (l, q) in select.iter().enumerate() {
            // traffic ≥ (temporal log-size of the irrelevant factors at
            // level l) − M·(1 − q).
            let mut row = LinExpr::from(traffic);
            for f in (0..FACTORS).filter(|&f| !relevant[f][t]) {
                row.add_term(x[f][l][1], -log_size[f]);
            }
            row.add_term(*q, -total);
            m.add_constraint(row, Cmp::Ge, -total);
            objective.add_term(*q, 0.3 * (LEVELS - l) as f64);
        }
        objective.add_term(traffic, 1.0 + 0.5 * t as f64);
        seeded_at.push((traffic, total));
        seeded_at.push((select[LEVELS - 1], 1.0));
    }
    m.set_objective(objective);
    let mut seed = vec![0.0; m.num_vars()];
    for (var, value) in seeded_at {
        seed[var.index()] = value;
    }
    (m, seed)
}

#[test]
fn node_limited_search_repeats_exactly() {
    let (model, seed) = scheduling_program();
    assert!(model.is_feasible(&seed, 1e-9));
    let seed_objective = model.objective().eval(&seed);
    let opts = SolveOptions {
        node_limit: 150,
        time_limit: None,
        gap_tol: 0.01,
        warm_start: Some(seed),
        ..SolveOptions::default()
    };
    let first = model
        .solve_with(&opts)
        .expect("an incumbent within 150 nodes");
    let second = model
        .solve_with(&opts)
        .expect("an incumbent within 150 nodes");
    assert!(model.is_feasible(first.values(), 1e-6));
    assert!(
        first.objective() < seed_objective,
        "the search found nothing"
    );
    // The budget binds, so this compares two truncated searches, dives and
    // warm starts included — not two proofs of one optimum.
    assert_eq!(first.status(), Status::Feasible);
    assert_eq!(first.stats().nodes, 150);
    assert_eq!(first.stats(), second.stats());
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(first.values()), bits(second.values()));
    assert_eq!(first.objective().to_bits(), second.objective().to_bits());
    // The trajectory as of PR 25 (both floats print their shortest
    // round-trip form, so these literals are exact): a speed-only change to
    // the solver must leave it alone, one that moves it has altered the
    // search and must update the literals on purpose.
    assert_eq!(
        first.stats(),
        SolveStats {
            nodes: 150,
            simplex_iters: 11473,
            best_bound: 19.25187253772122,
        }
    );
    assert_eq!(first.objective().to_bits(), 77.10795143372778f64.to_bits());
    println!(
        "{} rows, {} vars: objective {} (seed {seed_objective}) after {:?}",
        model.num_constraints(),
        model.num_vars(),
        first.objective(),
        first.stats()
    );
}

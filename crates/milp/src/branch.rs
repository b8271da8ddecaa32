//! Branch-and-bound over the LP relaxation.
//!
//! Nodes are explored best-first: smallest relaxation bound, deeper node on
//! a tie, earlier push after that — a total order, so the exploration
//! sequence (and with it every count in [`SolveStats`]) is a property of
//! this file. Branching splits on the most fractional integer variable,
//! weighted by its objective coefficient.
//!
//! **One simplex state per search.** Only the root LP is solved cold. A
//! branched node stores its optimal basis once, shared by both children;
//! a child installs it, applies its own bounds and re-optimizes with a few
//! dual pivots (see [`crate::simplex`]). The snapshot is released when the
//! second child has been popped. A warm solve that fails numerically falls
//! back to the cold solve for that LP inside the simplex workspace; the
//! search never sees the difference.
//!
//! **Diving heuristic.** At the root and at every `HEURISTIC_EVERY`-th
//! node a dive round-fixes the least fractional variable and re-solves, each
//! LP resuming from the one before it — the purest chain of one-bound
//! changes there is, which is what makes a dive cheap enough to run this
//! often. Node relaxations rarely turn integral under assignment
//! constraints, so the dives are where incumbents come from. A dive stops
//! as soon as its LP bound cannot beat the incumbent, and its point
//! becomes the incumbent only if [`Model::is_feasible`] accepts it.
//!
//! [`SolveStats::simplex_iters`] counts every pivot of every LP — node,
//! dive, warm, cold, fallback. [`SolveStats::best_bound`] is the incumbent
//! when the tree is exhausted and otherwise the smallest bound still open
//! (capped by the incumbent), whether the gap tolerance or a limit ended
//! the search.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::Instant;

use crate::error::MilpError;
use crate::model::{Model, Solution, SolveOptions, SolveStats, Status, VarKind};
use crate::simplex::{Basis, LpProblem, LpResult, LpSolution, Workspace};

/// How often (in nodes) the diving heuristic is attempted. Within the
/// 300-node serving budget a dive every 4–10 nodes finds the best incumbents
/// on every `milp_cnn_cold` shape; from 12 up some are missed, and a dive at
/// every node costs more time than it returns.
const HEURISTIC_EVERY: usize = 8;

struct Node {
    /// Lower bounds for structural variables at this node.
    lb: Vec<f64>,
    /// Upper bounds for structural variables at this node.
    ub: Vec<f64>,
    /// LP bound inherited from the parent (minimize form).
    bound: f64,
    depth: usize,
    /// Insertion number: the last tie-break, so that the exploration order
    /// is decided here and not by `BinaryHeap`'s layout.
    seq: usize,
    /// The parent's optimal basis, shared with the sibling; `None` at the
    /// root. Taken (and so released) when the node is popped.
    basis: Option<Rc<Basis>>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound first, with
        // deeper nodes preferred on ties (diving behaviour), then the node
        // pushed first.
        other
            .bound
            .total_cmp(&self.bound)
            .then_with(|| self.depth.cmp(&other.depth))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

pub(crate) fn solve(model: &Model, opts: &SolveOptions) -> Result<Solution, MilpError> {
    let start = Instant::now();
    let lp = LpProblem::from_model(model);
    let n = model.num_vars();
    let flip = lp.sense_flip();
    let obj_const = model.objective().constant();

    let int_vars: Vec<usize> = (0..n)
        .filter(|&j| !matches!(model.var_kind(crate::Var(j)), VarKind::Continuous))
        .collect();
    // Objective magnitude per variable, used to prioritize branching on
    // decisions that actually move the objective.
    let mut obj_weight = vec![0.0f64; n];
    for (j, c) in model.objective().iter() {
        obj_weight[j] = c.abs();
    }

    // Root bounds with integer bounds tightened to integral values.
    let mut root_lb = Vec::with_capacity(n);
    let mut root_ub = Vec::with_capacity(n);
    for j in 0..n {
        let (mut l, mut u) = model.var_bounds(crate::Var(j));
        if int_vars.binary_search(&j).is_ok() {
            l = l.ceil();
            u = u.floor();
        }
        root_lb.push(l);
        root_ub.push(u);
    }

    let feas_tol = opts.int_tol.max(1e-9);
    let mut stats = SolveStats::default();
    let mut incumbent: Option<(f64, Vec<f64>)> = None; // (min-form obj, x)
    if let Some(ws) = &opts.warm_start {
        if model.is_feasible(ws, feas_tol) {
            let user_obj = model.objective().eval(ws);
            let min_form = flip * (user_obj - obj_const);
            incumbent = Some((min_form, ws.clone()));
        }
    }

    // One simplex state for every LP of the search: the root is solved
    // cold, everything after it resumes from a basis already at hand.
    let mut ws = Workspace::new(&lp);
    let mut pushed = 0usize;
    let mut heap = BinaryHeap::new();
    heap.push(Node {
        lb: root_lb,
        ub: root_ub,
        bound: f64::NEG_INFINITY,
        depth: 0,
        seq: pushed,
        basis: None,
    });

    // Best-first: when the loop breaks on a popped node, that node's bound
    // is the smallest still open.
    let mut open_bound: Option<f64> = None;
    let mut limit_hit = false;
    while let Some(mut node) = heap.pop() {
        if let Some((inc, _)) = &incumbent {
            // Global bound check: best-first means node.bound is the best
            // remaining bound once the node's own LP refines it; use the
            // parent bound for a quick prune.
            if node.bound >= *inc - opts.gap_tol * inc.abs().max(1.0) {
                open_bound = Some(node.bound);
                break; // proven optimal within tolerance
            }
        }
        if stats.nodes >= opts.node_limit || opts.time_limit.is_some_and(|tl| start.elapsed() > tl)
        {
            open_bound = Some(node.bound);
            limit_hit = true;
            break;
        }
        stats.nodes += 1;

        // The parent's basis is released as soon as it is installed.
        let res = ws.solve(
            node.basis.take().as_deref(),
            &node.lb,
            &node.ub,
            opts.max_lp_iters,
        )?;
        let sol = match res {
            LpResult::Infeasible => continue,
            LpResult::Unbounded => {
                if incumbent.is_none() && node.depth == 0 {
                    return Err(MilpError::Unbounded);
                }
                continue;
            }
            LpResult::Optimal(s) => s,
        };

        if let Some((inc, _)) = &incumbent {
            if sol.objective >= *inc - opts.gap_tol * inc.abs().max(1.0) {
                continue; // dominated
            }
        }

        // Find the most fractional integer variable.
        let frac_var = most_fractional(&int_vars, &sol.x, opts.int_tol, &obj_weight);
        match frac_var {
            None => {
                // Integer feasible: new incumbent.
                let rounded = round_integers(&int_vars, &sol.x);
                if better(&incumbent, sol.objective) {
                    incumbent = Some((sol.objective, rounded));
                }
            }
            Some((j, xj)) => {
                // The children resume from this node's optimal basis; take
                // it before a dive moves the workspace away from it.
                let basis = Rc::new(ws.snapshot());
                // Dive from the root and periodically thereafter: node
                // relaxations only turn into incumbents when naturally
                // integral, which is rare under assignment constraints.
                if stats.nodes == 1 || stats.nodes % HEURISTIC_EVERY == 0 {
                    let cutoff = incumbent.as_ref().map(|(inc, _)| *inc);
                    if let Some((hobj, hx)) =
                        diving_heuristic(&mut ws, &int_vars, &sol, &node, cutoff, opts)?
                    {
                        // A warm LP that slipped numerically may cost this
                        // hit, never an infeasible answer.
                        if better(&incumbent, hobj) && model.is_feasible(&hx, feas_tol) {
                            incumbent = Some((hobj, hx));
                        }
                    }
                }
                // Branch on x_j <= floor / x_j >= ceil; only a child that
                // is pushed gets its own copy of the bounds.
                let mut push = |lb: Vec<f64>, ub: Vec<f64>| {
                    pushed += 1;
                    heap.push(Node {
                        lb,
                        ub,
                        bound: sol.objective,
                        depth: node.depth + 1,
                        seq: pushed,
                        basis: Some(Rc::clone(&basis)),
                    });
                };
                if node.lb[j] <= xj.floor() {
                    let mut ub = node.ub.clone();
                    ub[j] = xj.floor();
                    push(node.lb.clone(), ub);
                }
                if xj.ceil() <= node.ub[j] {
                    node.lb[j] = xj.ceil();
                    push(node.lb, node.ub);
                }
            }
        }
    }
    stats.simplex_iters = ws.iterations();

    match incumbent {
        Some((obj, x)) => {
            let status = if limit_hit {
                Status::Feasible
            } else {
                Status::Optimal
            };
            let bound = open_bound.map_or(obj, |open| open.min(obj));
            stats.best_bound = flip * bound + obj_const;
            Ok(Solution {
                values: x,
                objective: flip * obj + obj_const,
                status,
                stats,
            })
        }
        None if limit_hit => Err(MilpError::LimitWithoutSolution),
        None => Err(MilpError::Infeasible),
    }
}

fn better(incumbent: &Option<(f64, Vec<f64>)>, obj: f64) -> bool {
    match incumbent {
        None => true,
        Some((inc, _)) => obj < *inc - 1e-12,
    }
}

/// The fractional integer variable with the highest branching score:
/// fractionality (closeness to `.5`) weighted by the variable's objective
/// magnitude, so that decisions that move the objective are fixed first.
fn most_fractional(
    int_vars: &[usize],
    x: &[f64],
    tol: f64,
    obj_weight: &[f64],
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, f64)> = None; // (j, xj, score)
    for &j in int_vars {
        let xj = x[j];
        if (xj - xj.round()).abs() > tol {
            let fractionality = 0.5 - (xj - xj.floor() - 0.5).abs();
            let score = fractionality * (1.0 + obj_weight[j]);
            match best {
                Some((_, _, s)) if score <= s => {}
                _ => best = Some((j, xj, score)),
            }
        }
    }
    best.map(|(j, xj, _)| (j, xj))
}

/// Dive from a node's LP solution to an integer-feasible point: round-fix
/// the least fractional variable and re-solve, each LP resuming in `ws`
/// from the one before it, until everything is integral, the dive
/// dead-ends, or its LP bound can no longer beat `cutoff`.
fn diving_heuristic(
    ws: &mut Workspace<'_>,
    int_vars: &[usize],
    start: &LpSolution,
    node: &Node,
    cutoff: Option<f64>,
    opts: &SolveOptions,
) -> Result<Option<(f64, Vec<f64>)>, MilpError> {
    let mut lb = node.lb.clone();
    let mut ub = node.ub.clone();
    let mut sol = start.clone();
    // Soft dive: fix one fractional variable per round (the one closest to
    // integral), never freezing the rest — equality-constrained groups can
    // then rebalance, which hard freezing would forbid.
    for _round in 0..(2 * int_vars.len()).max(8) {
        let mut frac: Option<(usize, f64, f64)> = None; // (j, xj, dist)
        for &j in int_vars {
            let xj = sol.x[j];
            let dist = (xj - xj.round()).abs();
            if dist > opts.int_tol {
                match frac {
                    Some((_, _, d)) if dist >= d => {}
                    _ => frac = Some((j, xj, dist)),
                }
            }
        }
        let Some((j, xj, _)) = frac else {
            return Ok(Some((sol.objective, round_integers(int_vars, &sol.x))));
        };
        let r = xj.round().clamp(lb[j], ub[j]);
        lb[j] = r;
        ub[j] = r;
        match ws.solve(None, &lb, &ub, opts.max_lp_iters)? {
            LpResult::Optimal(s) if cutoff.is_none_or(|c| s.objective < c - 1e-12) => sol = s,
            _ => return Ok(None),
        }
    }
    Ok(None)
}

fn round_integers(int_vars: &[usize], x: &[f64]) -> Vec<f64> {
    let mut out = x.to_vec();
    for &j in int_vars {
        out[j] = out[j].round();
    }
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BinaryHeap;

    use super::Node;
    use crate::model::{Cmp, Model, Sense, Status};
    use crate::simplex::{LpProblem, LpResult};
    use crate::{LinExpr, MilpError};

    #[test]
    fn knapsack_small() {
        // max 10x0 + 13x1 + 7x2 + 4x3, w = [5,7,4,2], cap 10.
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..4).map(|i| m.add_binary(format!("x{i}"))).collect();
        let mut w = LinExpr::new();
        for (x, wi) in xs.iter().zip([5.0, 7.0, 4.0, 2.0]) {
            w.add_term(*x, wi);
        }
        m.add_constraint(w, Cmp::Le, 10.0);
        let mut obj = LinExpr::new();
        for (x, v) in xs.iter().zip([10.0, 13.0, 7.0, 4.0]) {
            obj.add_term(*x, v);
        }
        m.set_objective(obj);
        let sol = m.solve().unwrap();
        // best: items 1,3 wait — {0,2}: w=9 v=17; {1,3}: w=9 v=17; {0,3}: w=7 v=14;
        // {2,3}: w=6 v=11; {0,2,3}: w=11 invalid; so optimum 17.
        assert_eq!(sol.objective().round() as i64, 17);
        assert_eq!(sol.status(), Status::Optimal);
    }

    #[test]
    fn integer_rounding_not_lp() {
        // max x s.t. 2x <= 5, x integer → 2 (LP gives 2.5).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_integer("x", 0.0, 100.0);
        m.add_constraint(2.0 * x, Cmp::Le, 5.0);
        m.set_objective(LinExpr::from(x));
        let sol = m.solve().unwrap();
        assert_eq!(sol.value_round(x), 2);
    }

    #[test]
    fn assignment_problem() {
        // 3x3 assignment, cost matrix; LP is integral so B&B is trivial.
        let cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]];
        let mut m = Model::new(Sense::Minimize);
        let mut vars = Vec::new();
        for i in 0..3 {
            let row: Vec<_> = (0..3).map(|j| m.add_binary(format!("a{i}{j}"))).collect();
            vars.push(row);
        }
        for (i, row) in vars.iter().enumerate() {
            m.add_constraint(LinExpr::sum(row.iter().copied()), Cmp::Eq, 1.0);
            m.add_constraint(LinExpr::sum((0..3).map(|r| vars[r][i])), Cmp::Eq, 1.0);
        }
        let mut obj = LinExpr::new();
        for i in 0..3 {
            for j in 0..3 {
                obj.add_term(vars[i][j], cost[i][j]);
            }
        }
        m.set_objective(obj);
        let sol = m.solve().unwrap();
        // optimum: (0,1)=1, (1,0)=2, (2,2)=2 → 5
        assert_eq!(sol.objective().round() as i64, 5);
    }

    #[test]
    fn infeasible_integer_program() {
        // x + y = 1 with x,y binary and x + y >= 2 → infeasible.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint(x + y, Cmp::Eq, 1.0);
        m.add_constraint(x + y, Cmp::Ge, 2.0);
        m.set_objective(x + y);
        assert_eq!(m.solve().unwrap_err(), MilpError::Infeasible);
    }

    #[test]
    fn objective_constant_is_reported() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_integer("x", 1.0, 5.0);
        m.set_objective(x + 100.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.objective().round() as i64, 101);
    }

    #[test]
    fn mixed_integer_continuous() {
        // min 3x + y, x int, y cont; x + y >= 3.7; y <= 2 → x = 2, y = 1.7.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_integer("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 2.0);
        m.add_constraint(x + y, Cmp::Ge, 3.7);
        m.set_objective(3.0 * x + y);
        let sol = m.solve().unwrap();
        assert_eq!(sol.value_round(x), 2);
        assert!((sol.value(y) - 1.7).abs() < 1e-6);
    }

    #[test]
    fn matches_brute_force_on_small_grid() {
        // Exhaustively verify a 3-var bounded integer program.
        // max 7a + 5b + 4c s.t. 3a+2b+c <= 9, a+b+2c <= 7, a,b,c in [0,3].
        let brute = {
            let mut best = i64::MIN;
            for a in 0..=3i64 {
                for b in 0..=3i64 {
                    for c in 0..=3i64 {
                        if 3 * a + 2 * b + c <= 9 && a + b + 2 * c <= 7 {
                            best = best.max(7 * a + 5 * b + 4 * c);
                        }
                    }
                }
            }
            best
        };
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_integer("a", 0.0, 3.0);
        let b = m.add_integer("b", 0.0, 3.0);
        let c = m.add_integer("c", 0.0, 3.0);
        m.add_constraint(3.0 * a + 2.0 * b + c, Cmp::Le, 9.0);
        m.add_constraint(a + b + 2.0 * c, Cmp::Le, 7.0);
        m.set_objective(7.0 * a + 5.0 * b + 4.0 * c);
        let sol = m.solve().unwrap();
        assert_eq!(sol.objective().round() as i64, brute);
        // And the reported point is feasible.
        assert!(m.is_feasible(sol.values(), 1e-6));
    }

    #[test]
    fn unbounded_integer_program() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_integer("x", 0.0, f64::INFINITY);
        m.add_constraint(LinExpr::from(x), Cmp::Ge, 0.0);
        m.set_objective(LinExpr::from(x));
        assert_eq!(m.solve().unwrap_err(), MilpError::Unbounded);
    }

    #[test]
    fn node_limit_returns_feasible_or_error() {
        // With node_limit 1 we may only get the heuristic incumbent, which
        // must still be feasible.
        let m = knapsack(Sense::Maximize);
        let opts = crate::SolveOptions {
            node_limit: 1,
            ..Default::default()
        };
        match m.solve_with(&opts) {
            Ok(sol) => assert!(m.is_feasible(sol.values(), 1e-6)),
            Err(MilpError::LimitWithoutSolution) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    /// `max Σ (2i+1)·x_i` (or its negation, minimized) over six binaries
    /// with `Σ (i+1)·x_i ≤ 8`: the optimum is 14 (two items of total weight
    /// 8), the root relaxation gives 14.6.
    fn knapsack(sense: Sense) -> Model {
        let sign = if sense == Sense::Maximize { 1.0 } else { -1.0 };
        let mut m = Model::new(sense);
        let xs: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
        let mut w = LinExpr::new();
        let mut obj = LinExpr::new();
        for (i, x) in xs.iter().enumerate() {
            w.add_term(*x, (i + 1) as f64);
            obj.add_term(*x, sign * (2 * i + 1) as f64);
        }
        m.add_constraint(w, Cmp::Le, 8.0);
        m.set_objective(obj);
        m
    }

    /// One node, with the empty knapsack as a starting incumbent so that
    /// there is an answer whether or not the root dive finds one.
    fn one_node() -> crate::SolveOptions {
        crate::SolveOptions {
            node_limit: 1,
            warm_start: Some(vec![0.0; 6]),
            ..Default::default()
        }
    }

    #[test]
    fn node_limit_exit_reports_a_valid_best_bound() {
        let max = knapsack(Sense::Maximize).solve_with(&one_node()).unwrap();
        assert_eq!(max.status(), Status::Feasible);
        let bound = max.stats().best_bound;
        assert!(bound >= 14.0 - 1e-9, "not an upper bound: {bound}");
        assert!(bound >= max.objective() && bound < 15.0, "{bound}");

        let min = knapsack(Sense::Minimize).solve_with(&one_node()).unwrap();
        let bound = min.stats().best_bound;
        assert!(bound <= -14.0 + 1e-9, "not a lower bound: {bound}");
        assert!(bound <= min.objective() && bound > -15.0, "{bound}");

        // Run to the end, the bound closes onto the optimum.
        let proven = knapsack(Sense::Maximize).solve().unwrap();
        assert_eq!(proven.status(), Status::Optimal);
        assert_eq!(proven.objective().round() as i64, 14);
        assert!((proven.stats().best_bound - 14.0).abs() < 1e-6);
    }

    #[test]
    fn simplex_iters_count_the_dive_too() {
        let m = knapsack(Sense::Maximize);
        let sol = m.solve_with(&one_node()).unwrap();
        assert_eq!(sol.stats().nodes, 1);
        // The only node LP is the root relaxation; whatever the search
        // reports beyond its pivots was spent in the root dive.
        let root = match LpProblem::from_model(&m).solve(10_000).unwrap() {
            LpResult::Optimal(root) => root,
            other => panic!("{other:?}"),
        };
        assert!(
            sol.stats().simplex_iters > root.iterations,
            "{} pivots in all, {} at the root",
            sol.stats().simplex_iters,
            root.iterations
        );
    }

    #[test]
    fn node_order_is_total_and_agrees_with_equality() {
        let node = |bound: f64, depth: usize, seq: usize| Node {
            lb: Vec::new(),
            ub: Vec::new(),
            bound,
            depth,
            seq,
            basis: None,
        };
        let mut heap = BinaryHeap::new();
        for (bound, depth, seq) in [(1.0, 1, 0), (0.5, 1, 1), (0.5, 2, 2), (0.5, 2, 3)] {
            heap.push(node(bound, depth, seq));
        }
        // Smallest bound, then deepest, then first pushed.
        let order: Vec<usize> = std::iter::from_fn(|| heap.pop()).map(|n| n.seq).collect();
        assert_eq!(order, [2, 3, 1, 0]);
        assert!(node(0.5, 2, 2) != node(0.5, 2, 3));
        assert!(node(0.5, 2, 2) != node(0.5, 1, 2));
        assert!(node(0.5, 2, 2) == node(0.5, 2, 2));
    }
}

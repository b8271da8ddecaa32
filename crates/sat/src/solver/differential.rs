//! Differential checks of the solver against exhaustive enumeration, on
//! seeded random formulas (no clocks, no OS randomness): clauses mixed
//! with weighted pseudo-Boolean rows whose terms may be negative,
//! duplicated or complementary, under a bound-tightening sequence.

use super::*;

/// Knuth's MMIX linear congruential generator; the high bits are the
/// usable ones.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }

    fn lit(&mut self, vars: &[Var]) -> Lit {
        let v = vars[self.below(vars.len() as u64) as usize];
        if self.below(2) == 0 {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// A multiple of 0.5 in `[-4, 4]` (zero included): sums stay exact in
    /// `f64`, so brute force and solver compare the same numbers.
    fn coef(&mut self) -> f64 {
        self.below(17) as f64 * 0.5 - 4.0
    }
}

/// A formula as the caller wrote it, for evaluation by enumeration.
struct Formula {
    clauses: Vec<Vec<Lit>>,
    /// `(terms, bound)`; the last row is the one being tightened.
    rows: Vec<(Vec<(f64, Lit)>, f64)>,
}

impl Formula {
    fn holds(&self, truth: impl Fn(Lit) -> bool) -> bool {
        let weight = |terms: &[(f64, Lit)]| -> f64 {
            terms.iter().filter(|t| truth(t.1)).map(|t| t.0).sum()
        };
        self.clauses.iter().all(|c| c.iter().any(|&l| truth(l)))
            && self
                .rows
                .iter()
                .all(|(terms, bound)| weight(terms) <= *bound)
    }

    fn satisfiable(&self, num_vars: usize) -> bool {
        (0u32..1 << num_vars).any(|m| self.holds(|l| (m >> l.var() & 1 == 1) != l.is_neg()))
    }
}

#[test]
fn solve_agrees_with_enumeration_under_bound_tightening() {
    let (mut sat_steps, mut unsat_steps) = (0, 0);
    for seed in 0..400 {
        let mut rng = Lcg(seed);
        let mut s = Solver::new();
        let n = 3 + rng.below(10) as usize; // 3..=12 variables
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        let mut f = Formula {
            clauses: Vec::new(),
            rows: Vec::new(),
        };
        for _ in 0..rng.below(2 * n as u64) {
            let clause: Vec<Lit> = (0..1 + rng.below(4)).map(|_| rng.lit(&vars)).collect();
            s.add_clause(&clause);
            f.clauses.push(clause);
        }
        let row = |rng: &mut Lcg| -> Vec<(f64, Lit)> {
            (0..1 + rng.below(n as u64 + 3))
                .map(|_| (rng.coef(), rng.lit(&vars)))
                .collect()
        };
        for _ in 0..rng.below(4) {
            let (terms, bound) = (row(&mut rng), rng.coef());
            s.add_pb_le(&terms, bound);
            f.rows.push((terms, bound));
        }
        // The tightened row starts loose, so some seeds see it dropped as
        // trivial and installed only by a later tightening.
        let objective = row(&mut rng);
        let mut bound = rng.coef() + 6.0;
        let mut handle = s.add_pb_le(&objective, bound);
        f.rows.push((objective.clone(), bound));
        loop {
            let expect = f.satisfiable(n);
            let got = s.solve(None);
            assert_eq!(
                got == SolveOutcome::Sat,
                expect,
                "seed {seed}, bound {bound}"
            );
            if !expect {
                assert_eq!(got, SolveOutcome::Unsat, "seed {seed}");
                unsat_steps += 1;
                break;
            }
            sat_steps += 1;
            let truth = |l: Lit| s.value(l.variable()) != l.is_neg();
            assert!(f.holds(truth), "seed {seed}: model breaks a constraint");
            let value: f64 = objective.iter().filter(|t| truth(t.1)).map(|t| t.0).sum();
            bound = value - 0.5;
            match handle {
                Some(idx) => s.set_pb_bound(idx, bound),
                None => handle = s.add_pb_le(&objective, bound),
            }
            f.rows.last_mut().expect("objective row").1 = bound;
        }
    }
    assert!(
        sat_steps > 400 && unsat_steps == 400,
        "the sweep must tighten: {sat_steps} sat steps, {unsat_steps} proofs"
    );
}

/// Every clausal reason on the trail names a clause whose first literal is
/// the implied one and whose other literals are all false.
fn assert_reasons_hold(s: &Solver) {
    for &l in &s.trail {
        if let Reason::Clause(off) = s.reason[l.var()] {
            let lits = clause_lits(&s.arena, off);
            assert_eq!(lits[0], l.0, "implied literal leads its reason clause");
            for &q in &lits[1..] {
                assert_eq!(lit_value(&s.assign, Lit(q)), -1, "reason literal is false");
            }
        }
    }
}

#[test]
fn reasons_and_answers_survive_arena_compaction() {
    // Random 3-SAT near the threshold with a cardinality row: hundreds of
    // conflicts and several restarts. One solver reduces its database at
    // every restart (20 learnts allowed) and once more, by hand, at every
    // 200-conflict stop; the reference never reduces. After the first stop
    // two late clauses imply a variable at level 0 through a clause that
    // sits behind the learnt ones in the arena, so every later compaction
    // has a live reason to move. Both solvers must give the same answer.
    let (mut reductions, mut moved_reasons) = (0, 0);
    for seed in 0..48 {
        let mut rng = Lcg(1_000 + seed);
        let (mut reference, mut reducing) = (Solver::new(), Solver::with_max_learnts(20));
        let vars: Vec<Var> = (0..110)
            .map(|_| (reference.new_var(), reducing.new_var()).0)
            .collect();
        let mut formula = Formula {
            clauses: (0..468)
                .map(|_| (0..3).map(|_| rng.lit(&vars)).collect())
                .collect(),
            rows: vec![(vars.iter().map(|&v| (1.0, Lit::pos(v))).collect(), 58.0)],
        };
        let late = [
            vec![Lit::neg(vars[0]), Lit::pos(vars[1])],
            vec![Lit::pos(vars[0])],
        ];
        for s in [&mut reference, &mut reducing] {
            for clause in &formula.clauses {
                s.add_clause(clause);
            }
            s.add_pb_le(&formula.rows[0].0, formula.rows[0].1);
        }
        let originals = reducing.clauses.len();
        reducing.solve(Some(200));
        reducing.cancel_until(0); // a model may still be on the trail
        for clause in &late {
            reference.add_clause(clause);
            reducing.add_clause(clause);
        }
        formula.clauses.extend(late);
        let expect = reference.solve(None);
        let got = loop {
            match reducing.solve(Some(200)) {
                SolveOutcome::Limit => {
                    let behind_originals = |l: &&Lit| {
                        matches!(reducing.reason[l.var()], Reason::Clause(off)
                            if reducing.arena[off as usize + 1] as usize >= originals)
                    };
                    moved_reasons += reducing.trail.iter().filter(behind_originals).count();
                    reducing.reduce_db();
                    reductions += 1;
                    assert_reasons_hold(&reducing);
                    assert!(reducing.watches_match_clauses());
                }
                done => break done,
            }
        };
        assert!(reducing.max_learnts > 20 || reducing.stats.restarts == 0);
        assert_eq!(got, expect, "seed {seed}: reduction changed the answer");
        for s in [&reference, &reducing] {
            if expect == SolveOutcome::Sat {
                assert!(formula.holds(|l| s.value(l.variable()) != l.is_neg()));
            }
        }
    }
    assert!(
        reductions > 0 && moved_reasons > 0,
        "sweep too easy: {reductions} manual reductions, {moved_reasons} reasons to move"
    );
}

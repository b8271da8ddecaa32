//! Integration tests for the MILP/SAT portfolio: the factor-count pick,
//! cache keys that name it, cold→warm byte-identity across engine worker
//! counts and a cache-dir reopen, SAT/MILP optimal-cost agreement over
//! randomized small shapes, `SatScheduler` determinism at the `Scheduled`
//! level, and backend-provenance round-tripping through the persistent
//! cache store.

use std::time::Duration;

use cosa_repro::engine::Engine;
use cosa_repro::prelude::*;
use cosa_repro::serve::SERVE_COSA_NODE_LIMIT;
use proptest::prelude::*;

mod common;

/// The portfolio with both sides bounded by work, so every answer is
/// reproducible.
fn deterministic_portfolio(arch: &Arch) -> PortfolioScheduler {
    PortfolioScheduler::from_parts(
        CosaScheduler::new(arch).with_deterministic_limits(SERVE_COSA_NODE_LIMIT),
        SatScheduler::new(arch).with_conflict_budget(None),
    )
}

/// A mixed mini-suite on both sides of the 14-factor limit: three shapes
/// of 6–13 factors go to SAT, the 16-factor `c3x3` to the MILP.
fn mixed_network() -> Network {
    Network::new("mixed")
        .with_layer("prime_mm", Layer::matmul("prime_mm", 31, 16, 13), 1)
        .with_layer("pow2_mm", Layer::matmul("pow2_mm", 32, 16, 16), 1)
        .with_layer("c3x3", Layer::conv("c3x3", 3, 3, 8, 8, 16, 16, 1, 1, 1), 1)
        .with_layer("c1x1", Layer::conv("c1x1", 1, 1, 7, 7, 32, 32, 1, 1, 1), 1)
}

fn canonical(run: &cosa_repro::engine::NetworkRun) -> String {
    serde_json::to_string(&run.report.without_timings()).expect("report serializes")
}

#[test]
fn portfolio_picks_by_factor_count() {
    let arch = Arch::simba_baseline();
    let portfolio = deterministic_portfolio(&arch);
    let cases = [
        (Layer::matmul("mm_127x64x31", 127, 64, 31), 8, "sat"),
        (
            Layer::conv("conv_1x1_14x14_4_64", 1, 1, 14, 14, 4, 64, 1, 1, 1),
            12,
            "sat",
        ),
        (Layer::matmul("mm_32x64x64", 32, 64, 64), 17, "cosa"),
        (
            Layer::conv("conv_3x3_4x4_16_32", 3, 3, 4, 4, 16, 32, 1, 1, 1),
            15,
            "cosa",
        ),
        (
            Layer::parse_paper_name("1_1_2048_1000_1").expect("paper layer name"),
            17,
            "cosa",
        ),
    ];
    for (layer, factors, backend) in cases {
        assert_eq!(layer.factor_instances().len(), factors, "{}", layer.name());
        let mut picked = Scheduler::schedule(&portfolio, &arch, &layer).expect("portfolio");
        assert_eq!(picked.scheduler, backend, "{}", layer.name());

        // The answer is the picked backend's own, byte for byte.
        let mut alone = match backend {
            "sat" => Scheduler::schedule(portfolio.sat(), &arch, &layer),
            _ => Scheduler::schedule(portfolio.milp(), &arch, &layer),
        }
        .expect("backend alone");
        picked.elapsed = Duration::ZERO;
        alone.elapsed = Duration::ZERO;
        assert_eq!(picked, alone, "{}", layer.name());
    }
}

#[test]
fn portfolio_cache_key_names_the_dispatch_rule() {
    /// A scheduler whose only trait is the fingerprint the racing
    /// portfolio had, so the engine can key a layer by it.
    struct RaceFingerprint(String);
    impl Scheduler for RaceFingerprint {
        fn name(&self) -> &str {
            "portfolio"
        }
        fn fingerprint(&self) -> String {
            self.0.clone()
        }
        fn schedule(&self, _arch: &Arch, layer: &Layer) -> Result<Scheduled, ScheduleError> {
            Err(ScheduleError::NoValidSchedule {
                scheduler: "portfolio".to_string(),
                layer: layer.name().to_string(),
            })
        }
    }

    let arch = Arch::simba_baseline();
    let portfolio = PortfolioScheduler::new(&arch);
    let raced = RaceFingerprint(format!(
        "portfolio[{} | {}]",
        Scheduler::fingerprint(portfolio.milp()),
        Scheduler::fingerprint(portfolio.sat()),
    ));
    let fingerprint = Scheduler::fingerprint(&portfolio);
    assert!(fingerprint.starts_with("portfolio[sat if factors<=14 else cosa | "));
    assert_ne!(fingerprint, raced.fingerprint());

    // Entries the race cached must never be served as dispatch answers.
    let engine = Engine::new(arch);
    let layer = Layer::conv("c3x3", 3, 3, 8, 8, 16, 16, 1, 1, 1);
    assert_ne!(
        engine.cache_key(&portfolio, &layer),
        engine.cache_key(&raced, &layer)
    );
}

#[test]
fn portfolio_reports_are_byte_identical_across_workers_and_reopen() {
    let arch = Arch::simba_baseline();
    let network = mixed_network();
    let portfolio = deterministic_portfolio(&arch);
    let dir = common::scratch_dir("cosa-portfolio", "identity");

    let cold = {
        let engine = Engine::new(arch.clone())
            .with_threads(1)
            .with_cache_dir(&dir)
            .expect("open cache dir");
        engine.schedule_network(&network, &portfolio)
    };
    assert!(cold.report.is_complete(), "every layer schedules");
    assert_eq!(cold.cache_misses, network.unique_shapes() as u64);

    let two_workers = Engine::new(arch.clone())
        .with_threads(2)
        .schedule_network(&network, &portfolio);
    assert_eq!(
        canonical(&cold),
        canonical(&two_workers),
        "worker count must not change the portfolio's answers"
    );

    let warm = Engine::new(arch)
        .with_threads(2)
        .with_cache_dir(&dir)
        .expect("reopen cache dir")
        .schedule_network(&network, &portfolio);
    assert_eq!(
        warm.cache_misses, 0,
        "a reopened cache dir serves every layer"
    );
    assert_eq!(
        canonical(&cold),
        canonical(&warm),
        "cached answers must be the ones a fresh solve gives"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sat_scheduler_is_byte_identical_across_runs() {
    let arch = Arch::simba_baseline();
    let layer = Layer::conv("det", 1, 1, 8, 8, 16, 16, 1, 1, 1);
    let sat = SatScheduler::new(&arch);
    let mut a = Scheduler::schedule(&sat, &arch, &layer).expect("sat schedules");
    let mut b = Scheduler::schedule(&sat, &arch, &layer).expect("sat schedules");
    // Wall-clock is the only legitimately volatile field.
    a.elapsed = Duration::ZERO;
    b.elapsed = Duration::ZERO;
    let ja = serde_json::to_string(&a).expect("serializes");
    let jb = serde_json::to_string(&b).expect("serializes");
    assert_eq!(ja, jb, "SatScheduler output must be byte-identical");
}

#[test]
fn portfolio_engine_run_matches_milp_costs_and_both_backends_can_win() {
    // Costs must match the MILP-only reference on every layer, whichever
    // backend the portfolio picks for it.
    let arch = Arch::simba_baseline();
    let network = mixed_network();
    let portfolio = deterministic_portfolio(&arch);
    let engine = Engine::new(arch.clone());
    let run = engine.schedule_network(&network, &portfolio);
    assert!(run.report.is_complete(), "every layer schedules");

    // Exactness is on the Eq. 12 objective both backends optimize: SAT
    // may return a *different* optimal schedule (tie-broken differently),
    // but never a worse objective value.
    let reference = Engine::new(arch.clone()).schedule_network(&network, portfolio.milp());
    for (picked, milp) in run.report.layers.iter().zip(&reference.report.layers) {
        let (p, m) = (
            picked.scheduled.as_ref().expect("portfolio scheduled"),
            milp.scheduled.as_ref().expect("milp scheduled"),
        );
        let (po, mo) = (
            p.stats
                .milp_objective
                .expect("backend reports its objective"),
            m.stats.milp_objective.expect("milp reports its objective"),
        );
        assert!(
            (po - mo).abs() <= 1e-6 * po.abs().max(mo.abs()).max(1.0),
            "portfolio objective diverged from MILP on {}: {po} vs {mo}",
            picked.name,
        );
    }

    // Every fresh solve was credited to a real backend (never the
    // portfolio wrapper), and the tallies sum to the solve count.
    let stats = engine.cache_stats();
    let total: u64 = stats.backend_wins.iter().map(|w| w.wins).sum();
    assert_eq!(total, run.cache_misses, "every solve credited");
    for w in &stats.backend_wins {
        assert!(
            w.backend == "cosa" || w.backend == "sat",
            "solves credited to a backend, got `{}`",
            w.backend
        );
    }

    // The mix spans both sides of the 14-factor limit (see
    // `mixed_network`), so both backends must show a fresh solve.
    let wins_for = |name: &str| {
        stats
            .backend_wins
            .iter()
            .find(|w| w.backend == name)
            .map_or(0, |w| w.wins)
    };
    assert_eq!(wins_for("cosa"), 1, "only c3x3 goes to the MILP: {stats:?}");
    assert_eq!(wins_for("sat"), 3, "three shapes go to SAT: {stats:?}");
}

#[test]
fn cache_entry_backend_provenance_round_trips() {
    let arch = Arch::simba_baseline();
    let layer = Layer::conv("prov", 1, 1, 4, 4, 8, 8, 1, 1, 1);
    let dir = common::scratch_dir("cosa-portfolio", "prov");

    // Fresh solves persist the producing backend's name in the entry.
    {
        let engine = Engine::new(arch.clone())
            .with_cache_dir(&dir)
            .expect("open cache dir");
        let sat = SatScheduler::new(&arch);
        engine.schedule_layer(&sat, &layer).expect("sat schedules");
        let store = engine.store().expect("store attached");
        let load = store.load();
        assert_eq!(load.entries.len(), 1);
        assert_eq!(load.entries[0].1.backend.as_deref(), Some("sat"));
    }

    // And it survives a reopen: a later process reads the same name back.
    let load = CacheStore::open(&dir).expect("reopen store").load();
    assert_eq!(load.skipped, 0);
    assert_eq!(load.entries[0].1.backend.as_deref(), Some("sat"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Random small shapes for the agreement property: kept tiny so the
/// unbounded (optimality-proving) SAT solve stays fast per case.
fn agreement_layer_strategy() -> impl Strategy<Value = Layer> {
    (1u64..=3, 1u64..=8, 1u64..=24, 1u64..=24).prop_map(|(r, p, c, k)| {
        Layer::conv(format!("agree_{r}_{p}_{c}_{k}"), r, r, p, p, c, k, 1, 1, 1)
    })
}

/// The MILP side of the SAT/MILP agreement property: an exact solve (the
/// solver's default 1e-6 gap, not the scheduler's 3 %) bounded by
/// branch-and-bound nodes instead of the scheduler's 6 s clock, so a busy
/// machine cannot stop it early. 3 000 nodes reach the SAT-proven optimum
/// on each of the property's first 64 generated cases.
fn agreement_milp(arch: &Arch) -> cosa_core::CosaScheduler {
    cosa_core::CosaScheduler::new(arch).with_solve_options(cosa_milp::SolveOptions {
        node_limit: 3_000,
        time_limit: None,
        ..cosa_milp::SolveOptions::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// SAT and MILP agree on the optimal cost for randomized small
    /// shapes: both feasible with objectives within the SAT optimality
    /// margin, and SAT proves UNSAT exactly when the MILP is infeasible.
    #[test]
    fn sat_and_milp_agree_on_optimal_cost(layer in agreement_layer_strategy()) {
        let arch = Arch::simba_baseline();
        let milp = agreement_milp(&arch).schedule(&layer);
        let sat = cosa_repro::sat::SatScheduler::new(&arch)
            .with_conflict_budget(None)
            .schedule(&layer);
        match (milp, sat) {
            (Ok(m), Ok(s)) => {
                let (mo, so) = (m.milp_objective, s.objective);
                prop_assert!(s.proven_optimal, "unbounded SAT must prove optimality");
                let weights = cosa_core::ObjectiveWeights::default();
                if let Some(exact) = cosa_core::exact::exact_optimum(&layer, &arch, weights) {
                    prop_assert!(
                        (so - exact).abs() <= 1e-6 * so.abs().max(exact.abs()).max(1.0),
                        "sat {so} misses the exact optimum {exact} on {}",
                        layer.name(),
                    );
                }
                prop_assert!(
                    (mo - so).abs() <= 1e-6 * mo.abs().max(so.abs()).max(1.0),
                    "objectives diverge: milp {mo} vs sat {so}",
                );
            }
            (Err(_), Err(cosa_repro::sat::SatError::Infeasible)) => {
                // Agreement on infeasibility.
            }
            (m, s) => {
                prop_assert!(
                    false,
                    "solvers disagree on feasibility: milp ok={} sat {:?}",
                    m.is_ok(),
                    s.err(),
                );
            }
        }
    }
}

//! The engine's contract: `prepare → admit → execute`, one policy.

use mjoin_core::engine::{
    self, EngineError, Exceeded, ExecutorKind, Limits, Oracle, Plan, PlanStrategy, Prepared,
};
use mjoin_hypergraph::DbScheme;
use mjoin_program::{parse_program, CancelToken};
use mjoin_relation::{relation_of_ints, Catalog, Database};

type Fixture = (Catalog, DbScheme, Database);

/// Chain AB–BC–CD: acyclic, so the program engine's certificate ties the
/// AGM bound and `auto` keeps it.
fn chain() -> Fixture {
    let mut c = Catalog::new();
    let rows: Vec<Vec<i64>> = (0..40).map(|i| vec![i, i % 4]).collect();
    let rows: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    let db = Database::from_relations(vec![
        relation_of_ints(&mut c, "AB", &rows).unwrap(),
        relation_of_ints(&mut c, "BC", &[&[0, 1], &[1, 2], &[2, 3], &[3, 4]]).unwrap(),
        relation_of_ints(&mut c, "CD", &[&[1, 5], &[2, 6], &[3, 7]]).unwrap(),
    ]);
    let scheme = DbScheme::from_schemas(&db.schemas());
    (c, scheme, db)
}

/// Triangle AB–BC–AC: cyclic, every binary program is certified above the
/// AGM bound.
fn triangle() -> Fixture {
    let mut c = Catalog::new();
    let edges: Vec<Vec<i64>> = (0..6)
        .flat_map(|i| (0..6).map(move |j| vec![i, j]))
        .collect();
    let edges: Vec<&[i64]> = edges.iter().map(Vec::as_slice).collect();
    let db = Database::from_relations(vec![
        relation_of_ints(&mut c, "AB", &edges).unwrap(),
        relation_of_ints(&mut c, "BC", &edges).unwrap(),
        relation_of_ints(&mut c, "AC", &edges).unwrap(),
    ]);
    let scheme = DbScheme::from_schemas(&db.schemas());
    (c, scheme, db)
}

fn searched((c, s, db): Fixture, executor: ExecutorKind) -> Prepared {
    let plan = Plan::Search {
        strategy: PlanStrategy::Greedy,
        oracle: Oracle::Estimate,
    };
    engine::prepare(s, db, c, plan, executor).unwrap()
}

/// A Cartesian product over two 8-tuple relations: certified at 64.
fn cartesian() -> Prepared {
    let mut c = Catalog::new();
    let rows: Vec<Vec<i64>> = (0..8).map(|i| vec![i, i]).collect();
    let rows: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    let db = Database::from_relations(vec![
        relation_of_ints(&mut c, "AB", &rows).unwrap(),
        relation_of_ints(&mut c, "CD", &rows).unwrap(),
    ]);
    let scheme = DbScheme::from_schemas(&db.schemas());
    let program = parse_program(&c, &scheme, "R(V) := R(AB) ⋈ R(CD)").unwrap();
    engine::prepare(scheme, db, c, Plan::Program(program), ExecutorKind::Program).unwrap()
}

#[test]
fn admit_rejects_on_cost_with_the_full_payload() {
    let prepared = cartesian();
    let limits = Limits {
        max_cost: Some(50),
        ..Limits::default()
    };
    let r = prepared.admit(&limits).err().expect("64 > 50");
    assert_eq!(r.what, Exceeded::Cost);
    assert_eq!((r.stmt, r.kind), (Some(0), Some("join")));
    assert_eq!((r.bound, r.budget), (64, 50));
    assert_eq!(r.symbolic.as_deref(), Some("|⋈D[{AB,CD}]|"));
    assert_eq!(r.excerpt.as_deref(), Some("R(V) := R(AB) ⋈ R(CD)"));
    assert_eq!(
        r.to_string(),
        "certified bound 64 for statement 0 exceeds --max-cost 50"
    );
    // At the budget it is admitted, and the gate is charged the peak.
    let limits = Limits {
        max_cost: Some(64),
        ..Limits::default()
    };
    assert_eq!(prepared.admit(&limits).unwrap().certified_peak(), 64);
}

#[test]
fn admit_rejects_on_memory_with_the_full_payload() {
    let prepared = cartesian();
    let peak = prepared.analysis().memory().peak_bytes;
    let limits = Limits {
        mem_budget: Some(peak - 1),
        mem_rejects: true,
        ..Limits::default()
    };
    let r = prepared.admit(&limits).err().expect("peak over budget");
    assert_eq!(r.what, Exceeded::Memory);
    assert_eq!((r.stmt, r.kind), (Some(0), Some("join")));
    assert_eq!((r.bound, r.budget), (peak, peak - 1));
    assert!(r.symbolic.is_some() && r.excerpt.is_some());
    assert!(r.to_string().contains("exceeds --mem-budget"));
    // The same bytes as a spill budget refuse nothing.
    let limits = Limits {
        mem_budget: Some(peak - 1),
        ..Limits::default()
    };
    assert!(prepared.admit(&limits).is_ok());
}

#[test]
fn auto_picks_wcoj_exactly_when_select_says_so() {
    for (fixture, want_wcoj) in [(triangle(), true), (chain(), false)] {
        let prepared = searched(fixture, ExecutorKind::Auto);
        let sel = prepared.analysis().selection();
        assert_eq!(sel.use_wcoj, want_wcoj);
        let admitted = prepared.admit(&Limits::default()).unwrap();
        let d = admitted.decision();
        assert_eq!(d.executor == ExecutorKind::Wcoj, sel.use_wcoj);
        assert_eq!(d.agm_bound, Some(sel.agm_bound));
        assert_eq!(d.cert_bound, Some(sel.cert_bound));
        let out = admitted.execute(1, None, None).unwrap();
        assert_eq!(out.decision, d);
        assert_eq!(*out.result, prepared.db().join_all());
        // On the worst-case-optimal executor the AGM bound is what
        // `max_cost` gates.
        if want_wcoj {
            let tight = Limits {
                max_cost: Some(sel.agm_bound - 1),
                ..Limits::default()
            };
            let r = prepared.admit(&tight).err().expect("AGM over budget");
            assert_eq!(
                (r.what, r.stmt, r.bound),
                (Exceeded::Agm, None, sel.agm_bound)
            );
        }
    }
}

#[test]
fn forced_executors_agree_and_report_only_their_own_bound() {
    let program = searched(triangle(), ExecutorKind::Program);
    let wcoj = searched(triangle(), ExecutorKind::Wcoj);
    let (c, s, db) = triangle();
    let unplanned = engine::prepare_wcoj(s, db, c);
    assert!(unplanned.program().is_none() && unplanned.derived().is_none());
    let run = |p: &Prepared| {
        let admitted = p.admit(&Limits::default()).unwrap();
        (
            admitted.decision(),
            admitted.execute(2, None, None).unwrap(),
        )
    };
    let (dp, op) = run(&program);
    let (dw, ow) = run(&wcoj);
    let (du, ou) = run(&unplanned);
    assert_eq!((dp.agm_bound, dp.cert_bound), (None, None));
    assert!(dw.agm_bound.is_some() && dw.cert_bound.is_none());
    assert_eq!(dw, du);
    assert_eq!(*op.result, *ow.result);
    assert_eq!(*ow.result, *ou.result);
    assert_eq!(op.ledger.input_total(), ow.ledger.input_total());
}

#[test]
fn a_budgeted_run_carries_the_spill_plan() {
    let prepared = searched(chain(), ExecutorKind::Program);
    let unbudgeted = prepared.admit(&Limits::default()).unwrap();
    assert!(unbudgeted.spill().is_none());
    let limits = Limits {
        mem_budget: Some(1),
        ..Limits::default()
    };
    let budgeted = prepared.admit(&limits).unwrap();
    let plan = budgeted.spill().expect("every build side is over one byte");
    assert!(plan.any() && plan.spilled_stmts() > 0);
    let (a, b) = (
        unbudgeted.execute(1, None, None).unwrap(),
        budgeted.execute(1, None, None).unwrap(),
    );
    assert_eq!(*a.result, *b.result);
    assert_eq!(a.ledger.total(), b.ledger.total());
    // A roomy budget plans no spill at all.
    let roomy = Limits {
        mem_budget: Some(u64::MAX),
        ..Limits::default()
    };
    assert!(prepared.admit(&roomy).unwrap().spill().is_none());
}

#[test]
fn a_fired_token_cancels_either_executor_before_it_starts() {
    for executor in [ExecutorKind::Program, ExecutorKind::Wcoj] {
        let prepared = searched(triangle(), executor);
        let admitted = prepared.admit(&Limits::default()).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let cancelled = admitted.execute(1, None, Some(token)).unwrap_err();
        assert_eq!(cancelled.at_stmt, 0);
        assert!(admitted.execute(1, None, Some(CancelToken::new())).is_ok());
    }
}

#[test]
fn prepare_validates_foreign_programs_and_reports_plan_failures() {
    // A program whose result register does not exist does not validate.
    let (c, s, db) = chain();
    let mut bad = parse_program(&c, &s, "R(V) := R(AB) ⋈ R(BC)").unwrap();
    bad.result = mjoin_program::Reg::Temp(7);
    let err = engine::prepare(s, db, c, Plan::Program(bad), ExecutorKind::Program).unwrap_err();
    assert!(matches!(err, EngineError::Invalid(_)), "{err}");

    // A disconnected scheme is refused before any tree is searched for.
    let mut c = Catalog::new();
    let db = Database::from_relations(vec![
        relation_of_ints(&mut c, "AB", &[&[1, 2]]).unwrap(),
        relation_of_ints(&mut c, "CD", &[&[3, 4]]).unwrap(),
    ]);
    let s = DbScheme::from_schemas(&db.schemas());
    let plan = Plan::Search {
        strategy: PlanStrategy::Greedy,
        oracle: Oracle::Exact,
    };
    let err = engine::prepare(s, db, c, plan, ExecutorKind::Program).unwrap_err();
    assert_eq!(err, EngineError::Disconnected);
    assert!(err.to_string().contains("disconnected"));
}

#[test]
fn strategy_names_round_trip_and_reject_garbage() {
    for name in ["greedy", "dp", "dp-cpf", "dp-linear"] {
        assert_eq!(PlanStrategy::parse(name).unwrap().name(), name);
    }
    assert_eq!(
        PlanStrategy::parse("fastest").unwrap_err(),
        "unknown optimizer `fastest` (try greedy|dp|dp-cpf|dp-linear)"
    );
}

/// Every admitted run checks the bounds its admission already computed, and
/// an honest run trips none: the admission report forced by `max_cost` on
/// the program executor, the memory certificate forced by a spilling
/// `mem_budget`, and the AGM bound of `auto` routed to the worst-case-optimal
/// join on a triangle.
#[test]
fn honest_runs_record_no_bound_violations() {
    let cost = Limits {
        max_cost: Some(u64::MAX),
        ..Limits::default()
    };
    let spill = Limits {
        mem_budget: Some(1),
        ..Limits::default()
    };
    for (fixture, executor, limits) in [
        (chain(), ExecutorKind::Program, cost),
        (triangle(), ExecutorKind::Program, cost),
        (chain(), ExecutorKind::Program, spill),
        (triangle(), ExecutorKind::Program, spill),
        (triangle(), ExecutorKind::Auto, Limits::default()),
    ] {
        let prepared = searched(fixture, executor);
        let admitted = prepared.admit(&limits).unwrap();
        if limits.mem_budget.is_some() {
            assert!(
                admitted.spill().is_some(),
                "every build side is over one byte"
            );
        }
        if executor == ExecutorKind::Auto {
            assert_eq!(admitted.decision().executor, ExecutorKind::Wcoj);
        }
        for threads in [1, 3] {
            let out = admitted.execute(threads, None, None).unwrap();
            assert!(
                out.bound_violations.is_empty(),
                "{:?}",
                out.bound_violations
            );
        }
    }
}

/// A join of two lossy projections, π_A R(AB) ⋈ π_C S(BC): the dropped B
/// lets the head outgrow `|⋈D[{AB,BC}]|`, so its certificate falls back to
/// the product `|R| · |S|` — and a budgeted run holds the head to it.
#[test]
fn lossy_projection_join_stays_within_its_product_bound() {
    let mut c = Catalog::new();
    let rows: Vec<Vec<i64>> = (0..4).map(|i| vec![i, i]).collect();
    let rows: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    let db = Database::from_relations(vec![
        relation_of_ints(&mut c, "AB", &rows).unwrap(),
        relation_of_ints(&mut c, "BC", &rows).unwrap(),
    ]);
    let scheme = DbScheme::from_schemas(&db.schemas());
    let program = parse_program(
        &c,
        &scheme,
        "R(X) := π_A R(AB)\nR(Y) := π_C R(BC)\nR(Z) := R(X) ⋈ R(Y)",
    )
    .unwrap();
    let prepared =
        engine::prepare(scheme, db, c, Plan::Program(program), ExecutorKind::Program).unwrap();
    let analysis = prepared.analysis();
    let join = &analysis.certificate().stmts[2];
    assert_eq!(
        (join.kind, join.tight, join.factors.len()),
        ("join", false, 2)
    );
    let limits = Limits {
        max_cost: Some(u64::MAX),
        ..Limits::default()
    };
    let admitted = prepared.admit(&limits).unwrap();
    assert_eq!(admitted.analysis().admission().bounds[2].bound, 16);
    let out = admitted.execute(1, None, None).unwrap();
    // 16 answers, against a join of only 4 tuples.
    assert_eq!(out.result.len(), 16);
    assert!(
        out.bound_violations.is_empty(),
        "{:?}",
        out.bound_violations
    );
}

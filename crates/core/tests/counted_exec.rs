//! Differential property for query discovery's counting executor:
//! over every plan the Steiner search discovers in a world,
//! `execute_counted` on one engine gives the schema, row count and
//! service report that `execute_reported` gives on an identically built
//! twin, and both leave their services in the same state; the
//! shape-only `output_schema` gives the same columns. The worlds
//! cover a flat 10-venue engine, copy-on-write sessions of a shared
//! 48-venue world and a learned transform edge; in each, the zip
//! resolver is a fault-injecting `Flaky` behind the retry layer, so a
//! counter that skipped, added or reordered a service call would show
//! as a different report or a different probe state.

use copycat_core::autocomplete::{search_trees, tree_to_plan};
use copycat_core::{CopyCat, Scenario, ScenarioConfig, WorldBase};
use copycat_graph::NodeId;
use copycat_query::{execute_counted, execute_reported, output_schema, Plan};
use copycat_services::{Flaky, Resilient, RetryPolicy, World, WorldConfig, ZipResolver};
use copycat_util::check::{check, Gen};
use copycat_util::{prop_ensure, prop_ensure_eq};
use std::cell::RefCell;
use std::sync::Arc;

/// One side of a twin: the engine and its fault-injecting zip resolver.
struct Side {
    engine: CopyCat,
    zip: Arc<Resilient>,
}

/// The fault schedule both twins share.
#[derive(Clone, Copy)]
struct Faults {
    rate: f64,
    seed: u64,
}

/// Replace `engine`'s zip resolver with a flaky one behind a retry
/// layer whose breaker never trips, so every failure mode reaches the
/// executor.
fn with_flaky_zip(mut engine: CopyCat, world: &Arc<World>, faults: Faults) -> Side {
    let zip = Arc::new(ZipResolver::new(Arc::clone(world)));
    let flaky = Flaky::new(zip, faults.rate, 10, faults.seed);
    let policy = RetryPolicy {
        max_attempts: 2,
        backoff_base_ms: 10,
        backoff_cap_ms: 80,
        breaker_threshold: u32::MAX,
        cooldown_ms: 600_000,
    };
    let zip = engine.register_resilient(Arc::new(flaky), policy);
    Side { engine, zip }
}

fn flat(seed: u64, faults: Faults) -> Side {
    let config = WorldConfig { seed, venues: 10, ..WorldConfig::default() };
    let world = Arc::new(World::generate(&config));
    with_flaky_zip(WorldBase::flat_engine(&config), &world, faults)
}

fn shared(base: &Arc<WorldBase>, faults: Faults) -> Side {
    with_flaky_zip(CopyCat::with_base(base), &base.world(), faults)
}

/// Shelters, Directory and Contacts imported, with a learned transform
/// edge from Contacts' phones to the Directory's dashed ones.
fn transform(seed: u64, faults: Faults) -> Side {
    let mut s = Scenario::build(&ScenarioConfig { seed, venues: 10, ..ScenarioConfig::default() });
    s.import_shelters(1);
    s.import_directory();
    s.import_contacts();
    let examples: Vec<(String, String)> = s
        .contact_rows
        .iter()
        .take(3)
        .map(|r| (r[1].clone(), World::directory_phone(&r[1])))
        .collect();
    s.engine
        .learn_transform("Contacts", "Phone", "Directory", "Phone", &examples)
        .expect("phone reformat is learnable");
    with_flaky_zip(s.engine, &s.world, faults)
}

/// Every plan the top-3 Steiner search discovers over each pair of
/// graph nodes, first-discovery order, without repeats.
fn discovered_plans(engine: &CopyCat) -> Vec<Plan> {
    let graph = engine.graph();
    let nodes: Vec<NodeId> = (0..graph.node_count() as u32).map(NodeId).collect();
    let mut plans: Vec<Plan> = Vec::new();
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            for tree in search_trees(graph, &[a, b], 3) {
                if let Some(plan) = tree_to_plan(graph, &tree) {
                    if !plans.contains(&plan) {
                        plans.push(plan);
                    }
                }
            }
        }
    }
    plans
}

/// What the plans exercised, for the coverage checks.
#[derive(Default)]
struct Seen {
    join_roots: usize,
    derive_join_roots: usize,
    dependent_join_roots: usize,
    failure_kinds: Vec<String>,
}

/// Count every discovered plan on `counted` and execute it on `executed`
/// (in the same order), comparing the answers, then compare the twins'
/// service state.
fn compare_twins(counted: &Side, executed: &Side, seen: &mut Seen) -> Result<(), String> {
    let plans = discovered_plans(&counted.engine);
    prop_ensure_eq!(plans, discovered_plans(&executed.engine), "twins discover different plans");
    for plan in &plans {
        match plan {
            Plan::Join { left, .. } => {
                seen.join_roots += 1;
                if matches!(**left, Plan::Derive { .. }) {
                    seen.derive_join_roots += 1;
                }
            }
            Plan::DependentJoin { .. } => seen.dependent_join_roots += 1,
            _ => {}
        }
        let count = execute_counted(plan, counted.engine.catalog());
        let exec = execute_reported(plan, executed.engine.catalog(), "Q")
            .map(|(rel, report)| (rel.schema().clone(), rel.len(), report));
        if let Ok((schema, _, report)) = &exec {
            prop_ensure_eq!(
                output_schema(plan, counted.engine.catalog()),
                Ok(schema.clone()),
                "the shape walk and execution disagree on the columns of {plan}"
            );
            for f in &report.failures {
                if !seen.failure_kinds.contains(&f.kind) {
                    seen.failure_kinds.push(f.kind.clone());
                }
            }
        }
        prop_ensure_eq!(count, exec, "counted and executed answers differ for {plan}");
    }
    prop_ensure_eq!(counted.engine.health_snapshots(), executed.engine.health_snapshots());
    prop_ensure_eq!(
        counted.zip.saved_health(),
        executed.zip.saved_health(),
        "the flaky resolver's breaker or probe state diverged"
    );
    prop_ensure!(
        counted.zip.saved_health().flaky.is_some_and(|p| p.calls > 0),
        "the flaky resolver was never called"
    );
    Ok(())
}

fn faults(g: &mut Gen) -> Faults {
    Faults { rate: g.f64_in(0.5..0.9), seed: g.u64_in(0..1 << 32) }
}

#[test]
fn counted_discovery_matches_executed_discovery() {
    let base = Arc::new(WorldBase::synthetic(&WorldConfig {
        seed: 2009,
        venues: 48,
        ..WorldConfig::default()
    }));
    let seen = RefCell::new(Seen::default());
    check("counted-exec-matches-reported", 6, &[], |g| {
        let seen = &mut *seen.borrow_mut();
        let seed = g.u64_in(1..10_000);
        let f = faults(g);
        compare_twins(&flat(seed, f), &flat(seed, f), seen)?;
        let f = faults(g);
        compare_twins(&shared(&base, f), &shared(&base, f), seen)?;
        let seed = g.u64_in(1..10_000);
        let f = faults(g);
        compare_twins(&transform(seed, f), &transform(seed, f), seen)
    });
    let seen = seen.into_inner();
    assert!(seen.join_roots > 0, "no plan had a join root");
    assert!(seen.derive_join_roots > 0, "no plan joined through a learned transform");
    assert!(seen.dependent_join_roots > 0, "no plan had a dependent-join root");
    for kind in ["unavailable", "incomplete"] {
        assert!(
            seen.failure_kinds.iter().any(|k| k == kind),
            "the flaky resolver never failed as {kind}: {:?}",
            seen.failure_kinds
        );
    }
}

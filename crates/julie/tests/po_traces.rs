//! po witnesses carry the trace that first reached them. On random safe
//! nets, under the default property and random goal properties, with and
//! without `--reduce`, at one thread:
//!
//! * every po witness trace replays on the original net to a goal marking,
//!   the marking the report prints, never a statically lifted one;
//! * a po run stopped at a random state cap and resumed from its snapshot
//!   gives the uninterrupted run's states, deadlocks and traces.

use julie::engine::{run_engine, RunSpec};
use models::random::{random_safe_net, RandomNetConfig};
use partial_order::{ReducedOptions, SeedStrategy};
use petri::{
    Budget, CheckpointConfig, Observed, PetriNet, PlaceId, Property, ReduceOptions, Reduction,
    Snapshot, TransitionId,
};
use proptest::prelude::*;

fn cfg() -> RandomNetConfig {
    RandomNetConfig {
        components: 3,
        places_per_component: 4,
        resources: 2,
        resource_use_prob: 0.4,
        choice_prob: 0.5,
        max_states: 2_000,
    }
}

/// A state formula whose atoms name places and transitions by index,
/// taken modulo the net's counts when rendered.
#[derive(Debug, Clone)]
enum Formula {
    Marked(usize),
    Empty(usize),
    Fireable(usize),
    Deadlock,
    Not(Box<Formula>),
    And(Box<Formula>, Box<Formula>),
    Or(Box<Formula>, Box<Formula>),
}

fn formula() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        any::<usize>().prop_map(Formula::Marked),
        any::<usize>().prop_map(Formula::Empty),
        any::<usize>().prop_map(Formula::Fireable),
        Just(Formula::Deadlock),
    ];
    leaf.prop_recursive(3, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| Formula::Not(Box::new(f))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Formula::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Formula::Or(Box::new(a), Box::new(b))),
        ]
    })
}

/// `f` in the property language's concrete syntax, over `net`'s names.
fn render(f: &Formula, net: &PetriNet) -> String {
    let place = |i: usize| net.place_name(PlaceId::new(i % net.place_count()));
    match f {
        Formula::Marked(i) => format!("m({}) >= 1", place(*i)),
        Formula::Empty(i) => format!("m({}) = 0", place(*i)),
        Formula::Fireable(i) if net.transition_count() > 0 => format!(
            "fireable({})",
            net.transition_name(TransitionId::new(i % net.transition_count()))
        ),
        Formula::Fireable(_) | Formula::Deadlock => "deadlock".into(),
        Formula::Not(a) => format!("!({})", render(a, net)),
        Formula::And(a, b) => format!("({}) && ({})", render(a, net), render(b, net)),
        Formula::Or(a, b) => format!("({}) || ({})", render(a, net), render(b, net)),
    }
}

/// What `--reduce` makes of `net` when checking `property`.
fn reduced(net: &PetriNet, property: &Property) -> Reduction {
    let observed = Observed {
        places: property.observed_places(),
        transitions: property.observed_transitions(),
    };
    petri::reduce_observed(net, &ReduceOptions::default(), &observed).unwrap()
}

/// Runs `julie check --engine=po --threads=1` on `net` in-process, on the
/// net as written or on its `reduction`, and checks every witness it
/// reports.
fn check_witnesses(
    net: &PetriNet,
    reduction: Option<&Reduction>,
    property: &Property,
) -> Result<(), TestCaseError> {
    let spec = RunSpec {
        engine: "po".into(),
        zdd: false,
        witnesses: 4,
        threads: 1,
        property: property.clone(),
    };
    let budget = Budget::default();
    let ckpt = CheckpointConfig::default();
    let rules = ReduceOptions::default().rules_string();
    let report = run_engine(net, reduction, &rules, &spec, &budget, &ckpt, None).unwrap();
    let compiled = property.compile(net).unwrap();
    let reduce = reduction.is_some();
    let tag = format!("{property} reduce={reduce}\n{}", petri::to_text(net));
    for w in &report.witnesses {
        let trace = w.trace.as_ref();
        prop_assert!(trace.is_some(), "a po witness without a trace: {}", tag);
        prop_assert!(!w.statically_lifted, "{}", tag);
        let seq: Vec<TransitionId> = trace
            .unwrap()
            .iter()
            .map(|name| net.transition_by_name(name).unwrap())
            .collect();
        let end = net.fire_sequence(net.initial_marking(), seq).unwrap();
        prop_assert!(end.is_some(), "the trace does not replay: {}", tag);
        let end = end.unwrap();
        prop_assert!(compiled.goal(net, &end), "not a goal marking: {}", tag);
        prop_assert_eq!(
            &net.display_marking(&end).to_string(),
            &w.marking,
            "{}",
            tag
        );
    }
    Ok(())
}

/// Stops a po run on `net` (an original or a reduced net) at `cap` states
/// and resumes it from its snapshot: the result must be the uninterrupted
/// run's.
fn check_resume(net: &PetriNet, property: &Property, cap: usize) -> Result<(), TestCaseError> {
    let compiled = property.compile(net).unwrap();
    let opts = ReducedOptions {
        strategy: SeedStrategy::BestOfEnabled,
        threads: 1,
        visible: compiled.visible_transitions(net),
    };
    let ckpt = CheckpointConfig::default();
    let run = |budget: &Budget, resume: Option<&Snapshot>| {
        partial_order::explore(net, &opts, budget, &ckpt, resume).unwrap()
    };
    let whole = run(&Budget::default(), None).into_value();
    let cut = run(&Budget::default().cap_states(cap), None);
    if cut.is_complete() {
        return Ok(());
    }
    let snap = Snapshot::from_bytes(&cut.value().to_snapshot(net, false).to_bytes()).unwrap();
    let resumed = run(&Budget::default(), Some(&snap));
    prop_assert!(resumed.is_complete());
    let resumed = resumed.into_value();
    prop_assert_eq!(resumed.state_count(), whole.state_count());
    prop_assert_eq!(resumed.deadlocks(), whole.deadlocks());
    for s in whole.states() {
        prop_assert_eq!(resumed.marking(s), whole.marking(s));
        prop_assert_eq!(resumed.path_to(s), whole.path_to(s));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn po_traces_replay_and_survive_resume(
        seed in 0u64..100_000,
        goal in formula(),
        cap in 1usize..24,
    ) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let goal = render(&goal, &net);
        let properties = [
            Property::deadlock(),
            Property::parse(&format!("EF {goal}")).unwrap(),
            Property::parse(&format!("AG {goal}")).unwrap(),
        ];
        for property in &properties {
            for reduce in [false, true] {
                let reduction = reduce.then(|| reduced(&net, property));
                check_witnesses(&net, reduction.as_ref(), property)?;
                let explored = reduction.as_ref().map_or(&net, |r| &r.net);
                check_resume(explored, property, cap)?;
            }
        }
    }
}

//! The one-thread frontier loop against the loop it replaced: a
//! `HashMap<Marking, u32>` beside the dense state vector, with the
//! successors of each expansion collected into a `Vec` first. Kept here
//! as the oracle. On random nets of every size class and on nets whose
//! place counts sit at word boundaries, both must give the same ids,
//! `expanded` flags, deadlock order, edge count, origins, recorded edges
//! and byte estimate, complete, cut by a budget, and resumed.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use models::random::{random_net, RandomNetConfig};
use petri::parallel::{
    explore_frontier_seeded, Emit, FrontierOptions, FrontierResult, FrontierSeed, EDGE_BYTES,
    STATE_OVERHEAD_BYTES,
};
use petri::{
    Budget, ExhaustionReason, Marking, NetBuilder, NetError, Outcome, PetriNet, TransitionId,
};
use proptest::prelude::*;

type Result3 = (
    FrontierResult<Marking, TransitionId>,
    Option<ExhaustionReason>,
    usize,
);

fn successors(
    net: &PetriNet,
) -> impl Fn(&Marking, &mut Emit<'_, TransitionId, Marking>) -> Result<(), NetError> + Sync + '_ {
    move |m, emit| {
        for t in net.transitions() {
            if net.enabled(t, m) {
                emit(t, &net.fire(t, m)?);
            }
        }
        Ok(())
    }
}

/// The replaced one-thread loop, origins always on.
fn oracle(
    seed: FrontierSeed<Marking, TransitionId>,
    record_edges: bool,
    budget: &Budget,
    net: &PetriNet,
) -> Result<Result3, NetError> {
    let recorded: usize = seed.succ.iter().map(Vec::len).sum();
    let mut bytes = seed
        .states
        .iter()
        .map(|s| s.approx_bytes() + STATE_OVERHEAD_BYTES)
        .sum::<usize>()
        + recorded * EDGE_BYTES;
    let FrontierSeed {
        mut states,
        mut expanded,
        mut succ,
        mut deadlocks,
        mut edge_count,
    } = seed;
    let mut index: HashMap<Marking, u32> = HashMap::new();
    for (id, state) in states.iter().enumerate() {
        assert!(index.insert(state.clone(), id as u32).is_none());
    }
    if record_edges {
        succ.resize_with(states.len(), Vec::new);
    }
    let mut origin: Vec<Option<(u32, TransitionId)>> = vec![None; states.len()];
    let succ_fn = successors(net);
    let mut exhausted = None;
    let mut head = 0;
    loop {
        while head < states.len() && expanded[head] {
            head += 1;
        }
        if head == states.len() {
            break;
        }
        if let Some(reason) = budget.exceeded(states.len(), bytes) {
            exhausted = Some(reason);
            break;
        }
        let sid = head;
        head += 1;
        let mut succs: Vec<(TransitionId, Marking)> = Vec::new();
        succ_fn(&states[sid], &mut |t, next: &Marking| {
            succs.push((t, next.clone()))
        })?;
        let count_mark = edge_count;
        for (label, next) in succs {
            if let Some(reason) = budget.exceeded(states.len(), bytes) {
                exhausted = Some(reason);
                break;
            }
            let nid = match index.entry(next) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let nid = states.len() as u32;
                    bytes += e.key().approx_bytes() + STATE_OVERHEAD_BYTES;
                    states.push(e.key().clone());
                    expanded.push(false);
                    if record_edges {
                        succ.push(Vec::new());
                    }
                    origin.push(Some((sid as u32, label)));
                    e.insert(nid);
                    nid
                }
            };
            edge_count += 1;
            if record_edges {
                bytes += EDGE_BYTES;
                succ[sid].push((label, nid));
            }
        }
        if exhausted.is_some() {
            let rolled = edge_count - count_mark;
            if record_edges {
                bytes -= rolled * EDGE_BYTES;
                let kept = succ[sid].len() - rolled;
                succ[sid].truncate(kept);
            }
            edge_count = count_mark;
            break;
        }
        if edge_count == count_mark {
            deadlocks.push(sid as u32);
        }
        expanded[sid] = true;
    }
    succ.resize_with(states.len(), Vec::new);
    let result = FrontierResult {
        states,
        expanded,
        succ,
        origin,
        deadlocks,
        edge_count,
    };
    Ok((result, exhausted, bytes))
}

/// The one-thread loop under test, reduced to what the oracle returns.
fn table_loop(
    seed: FrontierSeed<Marking, TransitionId>,
    record_edges: bool,
    budget: &Budget,
    net: &PetriNet,
) -> Result<Result3, NetError> {
    // the spread fills the cfg-gated fault-injection fields when enabled
    #[allow(clippy::needless_update)]
    let opts = FrontierOptions {
        threads: 1,
        record_edges,
        record_origins: true,
        budget: budget.clone(),
        ..Default::default()
    };
    Ok(
        match explore_frontier_seeded(seed, &opts, successors(net))? {
            Outcome::Complete(r) => {
                let recorded: usize = r.succ.iter().map(Vec::len).sum();
                let bytes = r
                    .states
                    .iter()
                    .map(|s| s.approx_bytes() + STATE_OVERHEAD_BYTES)
                    .sum::<usize>()
                    + recorded * EDGE_BYTES;
                (r, None, bytes)
            }
            Outcome::Partial {
                result,
                reason,
                coverage,
            } => (result, Some(reason), coverage.bytes_estimate),
        },
    )
}

fn seed_of(r: &FrontierResult<Marking, TransitionId>) -> FrontierSeed<Marking, TransitionId> {
    FrontierSeed {
        states: r.states.clone(),
        expanded: r.expanded.clone(),
        succ: r.succ.clone(),
        deadlocks: r.deadlocks.clone(),
        edge_count: r.edge_count,
    }
}

fn assert_same(got: &Result3, want: &Result3, what: &str) {
    let ((g, g_reason, g_bytes), (w, w_reason, w_bytes)) = (got, want);
    assert_eq!(g.states, w.states, "{what}: ids");
    assert_eq!(g.expanded, w.expanded, "{what}: expanded flags");
    assert_eq!(g.deadlocks, w.deadlocks, "{what}: deadlock order");
    assert_eq!(g.edge_count, w.edge_count, "{what}: edge count");
    assert_eq!(g.origin, w.origin, "{what}: origins");
    assert_eq!(g.succ, w.succ, "{what}: recorded edges");
    assert_eq!(g_reason, w_reason, "{what}: stop reason");
    assert_eq!(g_bytes, w_bytes, "{what}: byte estimate");
}

/// Both loops on `net`: complete, with and without edges; cut at a third
/// of the states and at a byte cap; and each cut run resumed.
fn check(net: &PetriNet) {
    let name = net.name().to_string();
    let fresh = || FrontierSeed::initial(net.initial_marking().clone());
    let unlimited = Budget::default();
    for record_edges in [false, true] {
        let what = format!("{name} edges={record_edges}");
        let want = oracle(fresh(), record_edges, &unlimited, net);
        let got = table_loop(fresh(), record_edges, &unlimited, net);
        let want = match (got, want) {
            (Ok(g), Ok(w)) => {
                assert_same(&g, &w, &what);
                w
            }
            (Err(g), Err(w)) => {
                assert_eq!(g, w, "{what}: the same error");
                return;
            }
            (g, w) => panic!("{what}: {:?} vs {:?}", g.err(), w.err()),
        };
        let states = want.0.states.len();
        let bytes = want.2;
        for (cut, budget) in [
            ("states", Budget::default().cap_states(states / 3)),
            ("bytes", Budget::default().cap_bytes(bytes / 2)),
        ] {
            let what = format!("{what} cut by {cut}");
            let w = oracle(fresh(), record_edges, &budget, net).unwrap();
            let g = table_loop(fresh(), record_edges, &budget, net).unwrap();
            assert_same(&g, &w, &what);
            let w = oracle(seed_of(&w.0), record_edges, &unlimited, net).unwrap();
            let g = table_loop(seed_of(&g.0), record_edges, &unlimited, net).unwrap();
            assert_same(&g, &w, &format!("{what}, resumed"));
        }
    }
}

/// A net of exactly `places` places: a ring over `places - 4` of them
/// carrying one token, with shortcut choices, and two toggles. Its arcs
/// cross word boundaries when the ring does.
fn ring_with_toggles(places: usize) -> PetriNet {
    let n = places - 4;
    let mut b = NetBuilder::new(format!("ring{places}"));
    let ring: Vec<_> = (0..n)
        .map(|i| {
            if i == 0 {
                b.place_marked(format!("r{i}"))
            } else {
                b.place(format!("r{i}"))
            }
        })
        .collect();
    for i in 0..n {
        b.transition(format!("t{i}"), [ring[i]], [ring[(i + 1) % n]]);
        if i % 5 == 0 {
            b.transition(format!("u{i}"), [ring[i]], [ring[(i * 7 + 3) % n]]);
        }
    }
    for k in 0..2 {
        let on = b.place_marked(format!("on{k}"));
        let off = b.place(format!("off{k}"));
        b.transition(format!("down{k}"), [on], [off]);
        b.transition(
            format!("up{k}"),
            [off, ring[n - 1 - k]],
            [on, ring[n - 1 - k]],
        );
    }
    b.build().unwrap()
}

#[test]
fn word_boundary_nets_match_the_oracle() {
    for places in [64, 65, 128, 129] {
        let net = ring_with_toggles(places);
        assert_eq!(net.place_count(), places);
        check(&net);
    }
}

#[test]
fn unsafe_nets_fail_the_same_way() {
    let mut b = NetBuilder::new("unsafe");
    let p = b.place_marked("p");
    let q = b.place_marked("q");
    let r = b.place("r");
    b.transition("t1", [p], [r]);
    b.transition("t2", [q], [r]);
    check(&b.build().unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random nets of every size class, safe or not.
    #[test]
    fn random_nets_match_the_oracle(
        seed in 0u64..100_000,
        components in 1usize..5,
        places_per_component in 2usize..7,
        resources in 0usize..4,
        resource_use_tenths in 0u32..10,
        choice_tenths in 0u32..10,
    ) {
        let cfg = RandomNetConfig {
            components,
            places_per_component,
            resources,
            resource_use_prob: f64::from(resource_use_tenths) / 10.0,
            choice_prob: f64::from(choice_tenths) / 10.0,
            max_states: 1,
        };
        check(&random_net(seed, &cfg));
    }
}

//! The kill-and-resume invariant of the checkpoint layer, pinned across
//! the model zoo, every checkpointing engine, and thread counts: a run
//! interrupted by a budget, checkpointed to disk, and resumed from the
//! decoded snapshot reaches exactly the same verdict, state count, and
//! witnesses as an uninterrupted run.

use std::path::PathBuf;

use gpo_core::{analyze, ExplicitFamily, GpoOptions, SetFamily, ZddFamily};
use partial_order::{ReducedOptions, SeedStrategy};
use petri::checkpoint::read_checkpoint;
use petri::{Budget, CheckpointConfig, ExploreOptions, NetBuilder, PetriNet, ReachabilityGraph};

/// Deep chain with a wide dead-end fan-out at every link: one seed state
/// and a steal-dominated schedule, the stress shape for the work-stealing
/// frontier's checkpoint/resume path.
fn steal_heavy_comb(depth: usize, width: usize) -> PetriNet {
    let mut b = NetBuilder::new("comb");
    let mut cur = b.place_marked("c0");
    for i in 0..depth {
        let next = b.place(format!("c{}", i + 1));
        b.transition(format!("t{i}"), [cur], [next]);
        for j in 0..width {
            let d = b.place(format!("d{i}_{j}"));
            b.transition(format!("u{i}_{j}"), [cur], [d]);
        }
        cur = next;
    }
    b.build().unwrap()
}

fn zoo() -> Vec<PetriNet> {
    vec![
        models::nsdp(4),
        models::readers_writers(4),
        models::figures::fig2(5),
        models::scheduler(4),
        steal_heavy_comb(6, 2),
    ]
}

fn ckpt_path(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("julie-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{label}.ckpt"))
}

#[test]
fn full_engine_kill_and_resume_is_equivalent() {
    for net in zoo() {
        for threads in [1usize, 2, 8] {
            let tag = format!("{} threads={threads}", net.name());
            let opts = ExploreOptions {
                record_edges: true,
                threads,
            };
            let reference = ReachabilityGraph::explore(
                &net,
                &opts,
                &Budget::default(),
                &CheckpointConfig::default(),
                None,
            )
            .unwrap()
            .into_value();
            let path = ckpt_path(&format!("full-{tag}").replace(' ', "-"));
            let partial = ReachabilityGraph::explore(
                &net,
                &opts,
                &Budget::default().cap_states(5),
                &CheckpointConfig::at(&path),
                None,
            )
            .unwrap();
            assert!(!partial.is_complete(), "{tag}");
            let snap = read_checkpoint(&path).unwrap();
            let resumed = ReachabilityGraph::explore(
                &net,
                &opts,
                &Budget::default(),
                &CheckpointConfig::default(),
                Some(&snap),
            )
            .unwrap();
            assert!(resumed.is_complete(), "{tag}");
            let resumed = resumed.into_value();
            assert_eq!(resumed.state_count(), reference.state_count(), "{tag}");
            assert_eq!(resumed.edge_count(), reference.edge_count(), "{tag}");
            assert_eq!(resumed.has_deadlock(), reference.has_deadlock(), "{tag}");
            let dead = |rg: &ReachabilityGraph| {
                let mut ms: Vec<String> = rg
                    .deadlocks()
                    .iter()
                    .map(|&d| rg.marking(d).to_string())
                    .collect();
                ms.sort();
                ms
            };
            assert_eq!(dead(&resumed), dead(&reference), "{tag}");
        }
    }
}

#[test]
fn reduced_engine_kill_and_resume_is_equivalent() {
    for net in zoo() {
        for threads in [1usize, 2, 8] {
            let tag = format!("{} threads={threads}", net.name());
            let opts = ReducedOptions {
                strategy: SeedStrategy::BestOfEnabled,
                threads,
                visible: None,
            };
            let reference = partial_order::explore(
                &net,
                &opts,
                &Budget::default(),
                &CheckpointConfig::default(),
                None,
            )
            .unwrap()
            .into_value();
            let path = ckpt_path(&format!("po-{tag}").replace(' ', "-"));
            let partial = partial_order::explore(
                &net,
                &opts,
                &Budget::default().cap_states(5),
                &CheckpointConfig::at(&path),
                None,
            )
            .unwrap();
            assert!(!partial.is_complete(), "{tag}");
            let snap = read_checkpoint(&path).unwrap();
            let resumed = partial_order::explore(
                &net,
                &opts,
                &Budget::default(),
                &CheckpointConfig::default(),
                Some(&snap),
            )
            .unwrap();
            assert!(resumed.is_complete(), "{tag}");
            let resumed = resumed.into_value();
            assert_eq!(resumed.state_count(), reference.state_count(), "{tag}");
            assert_eq!(resumed.has_deadlock(), reference.has_deadlock(), "{tag}");
            let dead = |red: &ReachabilityGraph| {
                let mut ms: Vec<String> = red
                    .deadlocks()
                    .iter()
                    .map(|&d| red.marking(d).to_string())
                    .collect();
                ms.sort();
                ms
            };
            assert_eq!(dead(&resumed), dead(&reference), "{tag}");
            // every witness trace of the resumed graph replays
            for &d in resumed.deadlocks() {
                let trace = resumed.path_to(d).expect("every state has an origin");
                let end = net.fire_sequence(net.initial_marking(), trace).unwrap();
                assert_eq!(end.as_ref(), Some(resumed.marking(d)), "{tag}");
            }
        }
    }
}

#[test]
fn gpo_engine_kill_and_resume_is_equivalent() {
    fn check<F: SetFamily>(net: &PetriNet) {
        let repr = F::ENGINE_KIND.name();
        for threads in [1usize, 2, 8] {
            let tag = format!("{} {repr} threads={threads}", net.name());
            let opts = GpoOptions {
                threads,
                max_witnesses: 2,
                ..Default::default()
            };
            let reference = analyze::<F>(
                net,
                &opts,
                &Budget::default(),
                &CheckpointConfig::default(),
                None,
            )
            .unwrap()
            .into_value();
            let path = ckpt_path(&format!("gpo-{tag}").replace(' ', "-"));
            // GPO collapses the zoo to a handful of GPN states, so a
            // one-state budget reliably interrupts every model
            let partial = analyze::<F>(
                net,
                &opts,
                &Budget::default().cap_states(1),
                &CheckpointConfig::at(&path),
                None,
            )
            .unwrap();
            assert!(!partial.is_complete(), "{tag}");
            let snap = read_checkpoint(&path).unwrap();
            let resumed = analyze::<F>(
                net,
                &opts,
                &Budget::default(),
                &CheckpointConfig::default(),
                Some(&snap),
            )
            .unwrap();
            assert!(resumed.is_complete(), "{tag}");
            let resumed = resumed.into_value();
            assert_eq!(resumed.state_count, reference.state_count, "{tag}");
            assert_eq!(
                resumed.deadlock_possible, reference.deadlock_possible,
                "{tag}"
            );
            assert_eq!(resumed.valid_set_count, reference.valid_set_count, "{tag}");
            assert_eq!(
                resumed.deadlock_witnesses, reference.deadlock_witnesses,
                "{tag}"
            );
            assert_eq!(resumed.deadlock_traces, reference.deadlock_traces, "{tag}");
        }
    }
    for net in zoo() {
        check::<ExplicitFamily>(&net);
        check::<ZddFamily>(&net);
    }
}

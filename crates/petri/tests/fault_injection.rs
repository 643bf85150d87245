//! End-to-end worker-panic recovery, compiled only with the
//! `fault-injection` feature (`cargo test -p petri --features
//! fault-injection`): an injected panic inside a worker must surface as
//! [`NetError::WorkerPanicked`] within bounded wall-clock time, with every
//! other worker joined — no hung quiescence, no poisoned-mutex cascade.
#![cfg(feature = "fault-injection")]

use std::time::{Duration, Instant};

use petri::parallel::{explore_frontier, FrontierOptions};
use petri::{Budget, Marking, NetBuilder, NetError, PetriNet, PlaceId};

/// A deep chain net: enough states that every worker gets to dequeue.
fn chain(n: usize) -> PetriNet {
    let mut b = NetBuilder::new("chain");
    let mut prev = b.place_marked("p0");
    for i in 1..n {
        let next = b.place(format!("p{i}"));
        b.transition(format!("t{i}"), [prev], [next]);
        prev = next;
    }
    b.build().unwrap()
}

/// A fan of `strands` independent chains of `len` places behind one
/// choice: the initial marking enables every strand's first transition,
/// so expanding it fills the owner's deque with `strands` items at once.
fn fan(strands: usize, len: usize) -> PetriNet {
    let mut b = NetBuilder::new("fan");
    let root = b.place_marked("root");
    for s in 0..strands {
        let mut prev = root;
        for i in 0..len {
            let next = b.place(format!("s{s}_{i}"));
            b.transition(format!("t{s}_{i}"), [prev], [next]);
            prev = next;
        }
    }
    b.build().unwrap()
}

fn net_successors(
    net: &PetriNet,
) -> impl Fn(&Marking, &mut Vec<(petri::TransitionId, Marking)>) -> Result<(), NetError> + Sync + '_
{
    move |m, out| {
        for t in net.transitions() {
            if net.enabled(t, m) {
                out.push((t, net.fire(t, m)?));
            }
        }
        Ok(())
    }
}

#[test]
fn injected_panic_surfaces_within_bounded_time() {
    let net = chain(64);
    for threads in [2usize, 8] {
        for fault_after in [1usize, 5, 20] {
            let start = Instant::now();
            let result = explore_frontier(
                net.initial_marking().clone(),
                &FrontierOptions {
                    threads,
                    record_edges: true,
                    budget: Budget::default(),
                    inject_fault_after: Some(fault_after),
                    ..Default::default()
                },
                net_successors(&net),
            );
            let elapsed = start.elapsed();
            assert_eq!(
                result.unwrap_err(),
                NetError::WorkerPanicked,
                "threads={threads} fault_after={fault_after}"
            );
            // "bounded time" = all workers joined promptly; a hung
            // quiescence protocol would block until the test harness
            // timeout instead
            assert!(
                elapsed < Duration::from_secs(30),
                "threads={threads} fault_after={fault_after}: took {elapsed:?}"
            );
        }
    }
}

#[test]
fn engine_stays_usable_after_a_faulted_run() {
    // a panicked run must not leave global state behind that corrupts the
    // next exploration on the same nets
    let net = chain(32);
    let faulted = explore_frontier(
        net.initial_marking().clone(),
        &FrontierOptions {
            threads: 4,
            record_edges: true,
            budget: Budget::default(),
            inject_fault_after: Some(3),
            ..Default::default()
        },
        net_successors(&net),
    );
    assert_eq!(faulted.unwrap_err(), NetError::WorkerPanicked);

    let clean = explore_frontier(
        net.initial_marking().clone(),
        &FrontierOptions {
            threads: 4,
            record_edges: true,
            budget: Budget::default(),
            ..Default::default()
        },
        net_successors(&net),
    )
    .unwrap();
    assert!(clean.is_complete());
    assert_eq!(clean.into_value().states.len(), 32);
}

#[test]
fn fault_injection_composes_with_budgets() {
    // the budget must not mask the panic: the error wins over a partial
    let net = chain(64);
    let result = explore_frontier(
        net.initial_marking().clone(),
        &FrontierOptions {
            threads: 2,
            record_edges: false,
            budget: Budget::default().cap_states(1_000),
            inject_fault_after: Some(2),
            ..Default::default()
        },
        net_successors(&net),
    );
    assert_eq!(result.unwrap_err(), NetError::WorkerPanicked);
}

#[test]
fn panic_mid_steal_surfaces_within_bounded_time() {
    // the thief dies after draining its victim and before re-homing the
    // batch — the items are lost with it, so quiescence can only end via
    // the recorded error, never via the pending counter reaching zero. The
    // fan keeps many items in the owner's deque while the other workers
    // are idle; a chain's frontier holds one item, so a steal would hinge
    // on scheduling luck
    let net = fan(16, 8);
    let start = Instant::now();
    let result = explore_frontier(
        net.initial_marking().clone(),
        &FrontierOptions {
            threads: 4,
            inject_fault_on_steal: Some(1),
            ..Default::default()
        },
        |m: &Marking, out: &mut Vec<(petri::TransitionId, Marking)>| {
            // linger so expanded items sit in the owner's deque long
            // enough that an idle worker is guaranteed to steal
            std::thread::sleep(Duration::from_millis(5));
            for t in net.transitions() {
                if net.enabled(t, m) {
                    out.push((t, net.fire(t, m)?));
                }
            }
            Ok(())
        },
    );
    let elapsed = start.elapsed();
    assert_eq!(result.unwrap_err(), NetError::WorkerPanicked);
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?}");
}

#[test]
fn id_overflow_near_u32_max_fails_closed() {
    // regression for the overflow short-circuit: with the allocator
    // seeded two ids below the sentinel, the run must end in
    // StateIdOverflow (never a wrapped/colliding id) with all workers
    // joined promptly
    let net = chain(64);
    for threads in [2usize, 8] {
        let start = Instant::now();
        let result = explore_frontier(
            net.initial_marking().clone(),
            &FrontierOptions {
                threads,
                seed_next_id: Some(u32::MAX - 2),
                ..Default::default()
            },
            net_successors(&net),
        );
        let elapsed = start.elapsed();
        assert_eq!(
            result.unwrap_err(),
            NetError::StateIdOverflow,
            "threads={threads}"
        );
        assert!(
            elapsed < Duration::from_secs(30),
            "threads={threads}: took {elapsed:?}"
        );
    }
}

#[test]
fn marking_place_ids_roundtrip() {
    // smoke check that the test-net helper builds what it claims
    let net = chain(3);
    assert!(net.initial_marking().is_marked(PlaceId::new(0)));
    assert_eq!(net.place_count(), 3);
}

/// Satellite for the checkpoint layer: an io failure injected into the
/// snapshot write path — mid temp-file write, or in the window between
/// rotating the previous generation and the final rename — must surface
/// as a typed [`CheckpointError::Io`] while leaving a loadable snapshot
/// generation behind. One sequential test function: the armed-fault state
/// is global, so interleaving two of these would race.
#[test]
fn checkpoint_write_faults_keep_a_loadable_generation() {
    use petri::checkpoint::{fault, previous_generation};
    use petri::{
        read_checkpoint, read_checkpoint_with_fallback, write_checkpoint, CheckpointError,
        EngineKind, Snapshot,
    };

    let dir = std::env::temp_dir().join(format!("ckpt-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");
    let net = chain(3);
    let snap = |gen: u8| {
        let mut s = Snapshot::new(EngineKind::Full, &net);
        s.push_section(1, vec![gen; 64]);
        s
    };

    // generation A lands cleanly
    write_checkpoint(&path, &snap(0xAA)).unwrap();
    assert_eq!(read_checkpoint(&path).unwrap(), snap(0xAA));

    // a fault during the temp-file write surfaces as a typed io error and
    // leaves the primary byte-identical
    fault::arm(fault::STAGE_TMP_WRITE);
    let err = write_checkpoint(&path, &snap(0xBB)).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "typed: {err}");
    assert!(err.to_string().contains("injected fault"), "{err}");
    assert_eq!(
        read_checkpoint_with_fallback(&path).unwrap(),
        snap(0xAA),
        "primary generation survived the torn temp write"
    );

    // disarmed, the same write succeeds and rotates A to `.prev`
    write_checkpoint(&path, &snap(0xBB)).unwrap();
    assert_eq!(read_checkpoint(&path).unwrap(), snap(0xBB));
    assert_eq!(
        read_checkpoint(&previous_generation(&path)).unwrap(),
        snap(0xAA)
    );

    // a fault after the `.prev` rotation but before the final rename is
    // the worst crash window: the primary name is empty, and the fallback
    // reader must recover the rotated generation
    fault::arm(fault::STAGE_RENAME);
    let err = write_checkpoint(&path, &snap(0xCC)).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "typed: {err}");
    assert!(!path.exists(), "primary gone mid-rotation, as in a crash");
    assert_eq!(
        read_checkpoint_with_fallback(&path).unwrap(),
        snap(0xBB),
        "fallback recovers the rotated generation"
    );

    // and the system heals: the next clean write restores the primary
    write_checkpoint(&path, &snap(0xCC)).unwrap();
    assert_eq!(read_checkpoint_with_fallback(&path).unwrap(), snap(0xCC));
    std::fs::remove_dir_all(&dir).ok();
}

/// The same injected write failure, end to end through an engine: a
/// checkpointing exploration whose snapshot write fails must surface
/// [`NetError::Checkpoint`] instead of panicking or corrupting state.
#[test]
fn engine_surfaces_injected_checkpoint_write_failure() {
    use petri::checkpoint::fault;
    use petri::{CheckpointConfig, ExploreOptions, ReachabilityGraph};

    let dir = std::env::temp_dir().join(format!("ckpt-fault-engine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");
    let net = chain(32);
    let opts = ExploreOptions {
        threads: 1,
        ..Default::default()
    };
    let ckpt = CheckpointConfig::at(&path);
    fault::arm(fault::STAGE_TMP_WRITE);
    let err =
        ReachabilityGraph::explore(&net, &opts, &Budget::default().cap_states(4), &ckpt, None)
            .unwrap_err();
    fault::disarm();
    assert!(
        matches!(err, NetError::Checkpoint(_)),
        "typed engine error: {err:?}"
    );
    assert!(!path.exists(), "no torn snapshot under the primary name");
    std::fs::remove_dir_all(&dir).ok();
}

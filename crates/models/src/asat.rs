//! The asynchronous arbiter tree (ASAT) benchmark.
//!
//! `n` users (a power of two) compete for one shared resource through a
//! complete binary tree of asynchronous arbiter cells, as in speed-
//! independent circuit design: each cell arbitrates between its two
//! children and forwards a request to its parent; the root holds the
//! resource token.
//!
//! Protocol per cell, 4-phase style: a child's *request* is latched when
//! the cell is free (this is the cell's arbitration choice — a conflict),
//! the cell raises its own request upward, a *grant* from above is routed
//! down to the latched child, and the child's *done* releases the cell and
//! propagates upward.
//!
//! The benchmark is a **single arbitration round** (a tournament): every
//! user requests, each cell latches one of its children — a one-shot
//! conflict — and the root token travels down the locked path to exactly
//! one winner, whose completion retires the token. The run terminates with
//! one user served and the losers still pending, which registers as the
//! expected final dead marking. The net exhibits both explosion sources:
//! users act concurrently (interleavings) while sibling requests conflict
//! at every cell (choices).

use petri::{NetBuilder, PetriNet, PlaceId};

/// A request/grant/done channel between a child and its parent cell.
#[derive(Debug, Clone, Copy)]
struct Channel {
    req: PlaceId,
    grant: PlaceId,
    done: PlaceId,
}

/// Builds the arbiter-tree net for `n` users.
///
/// # Panics
///
/// Panics if `n` is not a power of two or is smaller than 2.
///
/// # Examples
///
/// ```
/// use petri::{Budget, CheckpointConfig, ReachabilityGraph};
///
/// let net = models::asat(2);
/// let rg = ReachabilityGraph::explore(
///     &net,
///     &Default::default(),
///     &Budget::default(),
///     &CheckpointConfig::default(),
///     None,
/// )?
/// .into_value();
/// // terminal states exist (the round resolves); they are expected
/// assert!(rg.has_deadlock());
/// # Ok::<(), petri::NetError>(())
/// ```
pub fn asat(n: usize) -> PetriNet {
    assert!(
        n >= 2 && n.is_power_of_two(),
        "ASAT needs a power-of-two user count >= 2, got {n}"
    );
    let mut b = NetBuilder::new(format!("asat_{n}"));

    // one channel per user, then one per internal cell (up-link); each
    // user takes part in one arbitration round
    let mut user_channels = Vec::with_capacity(n);
    for u in 0..n {
        let idle = b.place_marked(format!("idle{u}"));
        let waiting = b.place(format!("waiting{u}"));
        let using = b.place(format!("using{u}"));
        let served = b.place(format!("served{u}"));
        let req = b.place(format!("u{u}_req"));
        let grant = b.place(format!("u{u}_grant"));
        let done = b.place(format!("u{u}_done"));
        b.transition(format!("request{u}"), [idle], [req, waiting]);
        b.transition(format!("acquire{u}"), [waiting, grant], [using]);
        b.transition(format!("release{u}"), [using], [done, served]);
        user_channels.push(Channel { req, grant, done });
    }

    // build the tree bottom-up; `level` holds the channels feeding upward
    let mut level: Vec<Channel> = user_channels;
    let mut cell_id = 0;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len() / 2);
        for pair in level.chunks(2) {
            let (left, right) = (pair[0], pair[1]);
            let c = cell_id;
            cell_id += 1;
            let free = b.place_marked(format!("c{c}_free"));
            let lock_l = b.place(format!("c{c}_lockL"));
            let lock_r = b.place(format!("c{c}_lockR"));
            let up_req = b.place(format!("c{c}_req"));
            let up_grant = b.place(format!("c{c}_grant"));
            let up_done = b.place(format!("c{c}_done"));
            // arbitration: latch one child's request while free — the
            // cell's one-shot choice of this round's winner
            b.transition(format!("c{c}_latchL"), [left.req, free], [lock_l, up_req]);
            b.transition(format!("c{c}_latchR"), [right.req, free], [lock_r, up_req]);
            // route the grant from above to the latched child
            b.transition(format!("c{c}_grantL"), [up_grant, lock_l], [left.grant]);
            b.transition(format!("c{c}_grantR"), [up_grant, lock_r], [right.grant]);
            // the winning child's done propagates upward
            b.transition(format!("c{c}_doneL"), [left.done], [up_done]);
            b.transition(format!("c{c}_doneR"), [right.done], [up_done]);
            next.push(Channel {
                req: up_req,
                grant: up_grant,
                done: up_done,
            });
        }
        level = next;
    }

    // the root: the resource token is awarded to this round's winner and
    // retired when the winner completes
    let top = level[0];
    let token = b.place_marked("root_token");
    let retired = b.place("root_retired");
    b.transition("root_grant", [top.req, token], [top.grant]);
    b.transition("root_done", [top.done], [retired]);

    b.build().expect("asat is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore_full;

    #[test]
    fn structure_counts() {
        let net = asat(4);
        // 4 users * 7 places + 3 cells * 6 places + root token and retirement
        assert_eq!(net.place_count(), 4 * 7 + 3 * 6 + 2);
        // 4 users * 3 transitions + 3 cells * 6 + 2 root transitions
        assert_eq!(net.transition_count(), 4 * 3 + 3 * 6 + 2);
    }

    #[test]
    fn every_terminal_state_has_exactly_one_winner() {
        for n in [2usize, 4] {
            let net = asat(n);
            let rg = explore_full(&net).unwrap();
            assert!(rg.has_deadlock(), "the round resolves, n={n}");
            let served: Vec<_> = (0..n)
                .map(|u| net.place_by_name(&format!("served{u}")).unwrap())
                .collect();
            let retired = net.place_by_name("root_retired").unwrap();
            for &d in rg.deadlocks() {
                let m = rg.marking(d);
                let winners = served.iter().filter(|&&p| m.is_marked(p)).count();
                assert_eq!(winners, 1, "exactly one winner per round");
                assert!(m.is_marked(retired), "token retired at the end");
            }
        }
    }

    #[test]
    fn mutual_exclusion_holds() {
        let net = asat(4);
        let rg = explore_full(&net).unwrap();
        let using: Vec<_> = (0..4)
            .map(|u| net.place_by_name(&format!("using{u}")).unwrap())
            .collect();
        for s in rg.states() {
            let m = rg.marking(s);
            let users_in = using.iter().filter(|&&p| m.is_marked(p)).count();
            assert!(users_in <= 1, "two users in the critical section");
        }
    }

    #[test]
    fn every_user_can_acquire() {
        let net = asat(4);
        let rg = explore_full(&net).unwrap();
        for u in 0..4 {
            let p = net.place_by_name(&format!("using{u}")).unwrap();
            assert!(
                rg.states().any(|s| rg.marking(s).is_marked(p)),
                "user {u} never enters"
            );
        }
    }

    #[test]
    fn full_acquire_release_round_serves_the_user() {
        let net = asat(2);
        let names = [
            "request0",
            "c0_latchL",
            "root_grant",
            "c0_grantL",
            "acquire0",
            "release0",
            "c0_doneL",
            "root_done",
        ];
        let seq: Vec<_> = names
            .iter()
            .map(|s| net.transition_by_name(s).unwrap())
            .collect();
        let m = net
            .fire_sequence(net.initial_marking(), seq)
            .unwrap()
            .expect("round fires in order");
        let served = net.place_by_name("served0").unwrap();
        assert!(m.is_marked(served));
        let retired = net.place_by_name("root_retired").unwrap();
        assert!(m.is_marked(retired), "token retired after the round");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two() {
        asat(3);
    }

    #[test]
    fn sibling_requests_conflict_at_cell() {
        let net = asat(2);
        let l = net.transition_by_name("c0_latchL").unwrap();
        let r = net.transition_by_name("c0_latchR").unwrap();
        assert!(net.in_conflict(l, r), "arbitration is a conflict");
    }
}

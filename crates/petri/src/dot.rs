//! Graphviz DOT export for nets and reachability graphs.

use std::fmt::Write as _;

use crate::net::PetriNet;
use crate::reachability::ReachabilityGraph;

/// Renders the net structure as a Graphviz digraph: circles for places
/// (doubled border when initially marked), boxes for transitions.
///
/// # Examples
///
/// ```
/// use petri::{net_to_dot, NetBuilder};
///
/// let mut b = NetBuilder::new("n");
/// let p = b.place_marked("p");
/// let q = b.place("q");
/// b.transition("t", [p], [q]);
/// let dot = net_to_dot(&b.build()?);
/// assert!(dot.contains("digraph"));
/// assert!(dot.contains("\"p\" -> \"t\""));
/// # Ok::<(), petri::NetError>(())
/// ```
pub fn net_to_dot(net: &PetriNet) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", net.name());
    let _ = writeln!(out, "  rankdir=LR;");
    for p in net.places() {
        let marked = net.initial_marking().is_marked(p);
        let _ = writeln!(
            out,
            "  \"{}\" [shape=circle{}];",
            net.place_name(p),
            if marked {
                ", peripheries=2, label=\"●\", xlabel=\"".to_string() + net.place_name(p) + "\""
            } else {
                String::new()
            }
        );
    }
    for t in net.transitions() {
        let _ = writeln!(out, "  \"{}\" [shape=box];", net.transition_name(t));
    }
    for t in net.transitions() {
        for &p in net.pre_places(t) {
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\";",
                net.place_name(p),
                net.transition_name(t)
            );
        }
        for &p in net.post_places(t) {
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\";",
                net.transition_name(t),
                net.place_name(p)
            );
        }
    }
    out.push_str("}\n");
    out
}

/// Renders a reachability graph as a Graphviz digraph. States are labelled
/// with their marked places; the initial state is highlighted and dead
/// states are drawn red.
pub fn reachability_to_dot(net: &PetriNet, rg: &ReachabilityGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"RG_{}\" {{", net.name());
    for s in rg.states() {
        let label = net.display_marking(rg.marking(s));
        let mut attrs = format!("label=\"{label}\"");
        if s == rg.initial() {
            attrs.push_str(", penwidth=2");
        }
        if rg.deadlocks().contains(&s) {
            attrs.push_str(", color=red");
        }
        let _ = writeln!(out, "  {s} [{attrs}];");
    }
    for s in rg.states() {
        for &(t, n) in rg.successors(s) {
            let _ = writeln!(out, "  {s} -> {n} [label=\"{}\"];", net.transition_name(t));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore_full;
    use crate::net::NetBuilder;

    fn simple() -> PetriNet {
        let mut b = NetBuilder::new("simple");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("t", [p], [q]);
        b.build().unwrap()
    }

    #[test]
    fn net_dot_mentions_all_nodes_and_arcs() {
        let dot = net_to_dot(&simple());
        assert!(dot.starts_with("digraph \"simple\""));
        assert!(dot.contains("\"q\" [shape=circle]"));
        assert!(dot.contains("\"t\" [shape=box]"));
        assert!(dot.contains("\"p\" -> \"t\""));
        assert!(dot.contains("\"t\" -> \"q\""));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn rg_dot_highlights_initial_and_deadlock() {
        let net = simple();
        let rg = explore_full(&net).unwrap();
        let dot = reachability_to_dot(&net, &rg);
        assert!(dot.contains("penwidth=2"), "initial state highlighted");
        assert!(dot.contains("color=red"), "dead state highlighted");
        assert!(dot.contains("label=\"t\""), "edge labelled by transition");
    }
}

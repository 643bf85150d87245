//! End-to-end property equivalence, driven through the real binary:
//!
//! * spelling out the default `EF deadlock` is byte-identical to the
//!   legacy deadlock path, for every engine and thread count, on
//!   arbitrary random safe nets (differential proptest);
//! * `AG !deadlock` — semantically the same question, but routed through
//!   the visible-transition machinery because the formula is not the
//!   default — lands on the same exit code;
//! * on the model zoo, every engine agrees with the `full` reference on
//!   a battery of non-deadlock properties, at 1 and 8 threads, with and
//!   without `--reduce`.

use models::random::{random_safe_net, RandomNetConfig};
use proptest::prelude::*;
use std::process::{Command, Output, Stdio};

const ENGINES: [&str; 5] = ["full", "po", "gpo", "bdd", "unfold"];
const THREADS: [&str; 2] = ["1", "8"];

fn julie(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_julie"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Writes `net` to a fresh per-label temp file and returns its path.
fn net_file(label: &str, net: &petri::PetriNet) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("julie-prop-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{label}.net"));
    std::fs::write(&path, petri::to_text(net)).unwrap();
    path
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The differential pin: `--property 'EF deadlock'` IS the legacy
    /// deadlock path — same bytes, same exit code — and the non-default
    /// routing of the same question agrees on the verdict.
    #[test]
    fn spelled_default_is_byte_identical_on_random_nets(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let path = net_file(&format!("rand{seed}"), &net);
        let file = path.to_str().unwrap();
        for engine in ENGINES {
            let eng = format!("--engine={engine}");
            for threads in THREADS {
                let thr = format!("--threads={threads}");
                let legacy = julie(&["check", file, &eng, &thr]);
                let spelled =
                    julie(&["check", file, &eng, &thr, "--property=EF deadlock"]);
                prop_assert_eq!(
                    legacy.status.code(),
                    spelled.status.code(),
                    "{} x{}: exit codes diverge",
                    engine,
                    threads
                );
                prop_assert_eq!(
                    &legacy.stdout,
                    &spelled.stdout,
                    "{} x{}: output diverges\n{}",
                    engine,
                    threads,
                    petri::to_text(&net)
                );

                // same question, forced through the visible-set route
                let agn = julie(&["check", file, &eng, &thr, "--property=AG !deadlock"]);
                prop_assert_eq!(
                    legacy.status.code(),
                    agn.status.code(),
                    "{} x{}: AG !deadlock diverges from the deadlock verdict\n{}",
                    engine,
                    threads,
                    petri::to_text(&net)
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Replays every `witness trace:` line of `text` on `net`: each must fire
/// from the initial marking and end in a goal marking of `property`.
fn assert_traces_replay(net: &petri::PetriNet, property: &str, text: &str, tag: &str) {
    let compiled = petri::Property::parse(property)
        .unwrap()
        .compile(net)
        .unwrap();
    for trace in text
        .lines()
        .filter_map(|l| l.strip_prefix("witness trace:"))
    {
        let seq: Vec<_> = trace
            .split_whitespace()
            .map(|name| net.transition_by_name(name).unwrap())
            .collect();
        let end = net.fire_sequence(net.initial_marking(), seq).unwrap();
        let end = end.unwrap_or_else(|| panic!("{tag}: the trace does not replay"));
        assert!(compiled.goal(net, &end), "{tag}: not a goal marking");
    }
}

/// One zoo model plus the properties to check on it, with the expected
/// exit code of the complete (`full`) reference run.
struct Case {
    label: &'static str,
    net: petri::PetriNet,
    properties: &'static [(&'static str, i32)],
}

fn zoo() -> Vec<Case> {
    vec![
        Case {
            label: "rw2",
            net: models::readers_writers(2),
            properties: &[
                // a writer can get in …
                ("EF m(writing0) >= 1", 1),
                // … so writing is not invariantly absent …
                ("AG m(writing0) = 0", 1),
                // … but two writers never hold the database together
                ("EF m(writing0) >= 1 && m(writing1) >= 1", 0),
                ("AG m(reading0) <= 1", 0),
                ("EF fireable(startWrite1)", 1),
            ],
        },
        Case {
            label: "nsdp3",
            net: models::nsdp(3),
            properties: &[
                ("EF m(eat0) >= 1", 1),
                ("AG m(eat0) = 0", 1),
                // any two of the three philosophers are fork-neighbours
                ("EF m(eat0) >= 1 && m(eat1) >= 1", 0),
                ("EF fireable(release2)", 1),
            ],
        },
    ]
}

/// Zoo × engines × threads: everyone agrees with the full reference.
#[test]
fn zoo_engines_and_threads_agree_on_non_deadlock_properties() {
    for case in zoo() {
        let path = net_file(case.label, &case.net);
        let file = path.to_str().unwrap();
        for (property, expected) in case.properties {
            let prop = format!("--property={property}");
            let reference = julie(&["check", file, "--engine=full", &prop]);
            assert_eq!(
                reference.status.code(),
                Some(*expected),
                "{}: `{property}` reference verdict: {}",
                case.label,
                stderr(&reference)
            );
            for engine in ENGINES {
                let eng = format!("--engine={engine}");
                for threads in THREADS {
                    let thr = format!("--threads={threads}");
                    let run = julie(&["check", file, &eng, &thr, &prop]);
                    let tag = format!("{}: `{property}` on {engine} x{threads}", case.label);
                    assert_eq!(
                        run.status.code(),
                        Some(*expected),
                        "{tag}: {}\n{}",
                        stderr(&run),
                        stdout(&run)
                    );
                    assert_traces_replay(&case.net, property, &stdout(&run), &tag);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// `--reduce` under a property keeps the observed place intact: the goal
/// marking names it directly and the verdict matches the unreduced run.
#[test]
fn zoo_reduce_keeps_observed_places_and_verdicts() {
    let net = models::readers_writers(2);
    let path = net_file("rw2-reduce", &net);
    let file = path.to_str().unwrap();
    for engine in ["full", "po"] {
        let eng = format!("--engine={engine}");
        let property = "EF m(writing0) >= 1";
        let prop = format!("--property={property}");
        let out = julie(&["check", file, &eng, "--reduce", &prop]);
        assert_eq!(out.status.code(), Some(1), "{engine}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("witness trace:"), "{engine}: {text}");
        assert_traces_replay(&net, property, &text, engine);
        let goal = text
            .lines()
            .find(|l| l.contains("goal marking"))
            .unwrap_or_else(|| panic!("{engine}: no goal marking line in\n{text}"));
        assert!(
            goal.contains("writing0"),
            "{engine}: observed place fused away: {goal}"
        );
    }
    std::fs::remove_file(&path).ok();
}

//! End-to-end tests of the `julie` binary: every command, every engine,
//! and the error paths, exercised through the real executable.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Output, Stdio};

fn julie(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_julie"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Runs julie with `stdin` piped in. Only for invocations that *read*
/// stdin (a `-` net that survives flag validation): the write is strict,
/// so an EPIPE here is a real regression, not a tolerated shutdown race.
/// Invocations rejected before stdin is read go through [`julie_rejected`].
fn julie_stdin(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_julie"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut handle = child.stdin.take().expect("stdin piped");
    handle.write_all(stdin.as_bytes()).expect("stdin written");
    // close the pipe before reaping, so the child sees EOF exactly once
    // and wait_with_output can never deadlock on a full stdin buffer
    drop(handle);
    child.wait_with_output().expect("binary finishes")
}

/// Runs an invocation that is rejected before stdin would be read (unknown
/// flags and the like). stdin is /dev/null — piping data into a process
/// that exits without reading it is what made the old helper race EPIPE.
fn julie_rejected(args: &[&str]) -> Output {
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

const CYCLE: &str = "net cycle\npl p *\npl q\ntr go : p -> q\ntr back : q -> p\n";
const STUCK: &str = "net stuck\npl p *\npl q\ntr go : p -> q\n";

#[test]
fn help_prints_usage() {
    for args in [vec!["help"], vec![]] {
        let out = julie(&args.to_vec());
        assert!(out.status.success());
        assert!(stdout(&out).contains("usage:"));
    }
}

#[test]
fn model_emits_parsable_net() {
    let out = julie(&["model", "nsdp", "3"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("net nsdp_3"));
    petri::parse_net(&text).expect("model output parses");
}

#[test]
fn model_knows_all_benchmarks() {
    for (name, n) in [
        ("nsdp", "2"),
        ("asat", "4"),
        ("over", "3"),
        ("rw", "3"),
        ("fig2", "5"),
    ] {
        let out = julie(&["model", name, n]);
        assert!(out.status.success(), "{name}");
        petri::parse_net(&stdout(&out)).expect("parses");
    }
    for name in ["fig1", "fig3", "fig7"] {
        let out = julie(&["model", name]);
        assert!(out.status.success(), "{name}");
    }
}

#[test]
fn model_rejects_unknown() {
    let out = julie(&["model", "nope"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown model"));
}

#[test]
fn info_reports_structure() {
    let out = julie_stdin(&["info", "-"], CYCLE);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("net `cycle`: 2 places, 2 transitions, 4 arcs"));
    assert!(text.contains("initial marking: {p}"));
    assert!(text.contains("p + q = const"), "place invariant shown");
}

#[test]
fn check_all_engines_agree_via_cli() {
    for engine in ["full", "po", "bdd", "gpo", "pdr"] {
        let out = julie_stdin(&["check", "-", &format!("--engine={engine}")], STUCK);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{engine}: deadlock exits 1: {}",
            stderr(&out)
        );
        assert!(
            stdout(&out).contains("DEADLOCK possible"),
            "{engine} verdict"
        );
        let live = julie_stdin(&["check", "-", &format!("--engine={engine}")], CYCLE);
        assert_eq!(live.status.code(), Some(0), "{engine}: verified exits 0");
        assert!(stdout(&live).contains("deadlock-free"), "{engine} verdict");
    }
}

#[test]
fn check_full_prints_witness_trace() {
    let out = julie_stdin(&["check", "-", "--engine=full"], STUCK);
    let text = stdout(&out);
    assert!(text.contains("dead marking: {q}"));
    assert!(text.contains("witness trace: go"));
}

#[test]
fn check_gpo_zdd_flag_works() {
    let out = julie_stdin(&["check", "-", "--engine=gpo", "--zdd"], STUCK);
    assert_eq!(out.status.code(), Some(1), "deadlock exits 1");
    assert!(stdout(&out).contains("DEADLOCK possible"));
    assert!(
        stdout(&out).contains("zdd: "),
        "shared-manager counters shown: {}",
        stdout(&out)
    );
}

#[test]
fn check_gpo_threads_flag_works() {
    for extra in [&["--threads=2"][..], &["--zdd", "--threads=2"][..]] {
        let mut args = vec!["check", "-", "--engine=gpo"];
        args.extend_from_slice(extra);
        let out = julie_stdin(&args, STUCK);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{extra:?}: deadlock exits 1: {}",
            stderr(&out)
        );
        assert!(stdout(&out).contains("DEADLOCK possible"), "{extra:?}");
    }
    let live = julie_stdin(&["check", "-", "--engine=gpo", "--threads=4"], CYCLE);
    assert_eq!(live.status.code(), Some(0), "verified exits 0");
    assert!(stdout(&live).contains("deadlock-free"));
}

#[test]
fn check_pdr_proves_with_a_certificate() {
    // a deadlock-free net: pdr must prove it and print the re-validated
    // inductive invariant
    let out = julie_stdin(&["check", "-", "--engine=pdr"], CYCLE);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("engine: inductive safety proving"), "{text}");
    assert!(text.contains("frames: "), "{text}");
    assert!(text.contains("certificate: inductive invariant"), "{text}");

    // the same run as JSON: verdict, details, and certificate clauses
    let json = julie_stdin(&["check", "-", "--engine=pdr", "--json"], CYCLE);
    assert_eq!(json.status.code(), Some(0));
    let text = stdout(&json);
    assert!(text.contains("\"verdict\":\"deadlock-free\""), "{text}");
    assert!(text.contains("\"certificate\""), "{text}");
    assert!(text.contains("\"sat_calls\""), "{text}");

    // a deadlocking net under an AG property: witness + trace, exit 1
    let viol = julie_stdin(
        &["check", "-", "--engine=pdr", "--property=AG !deadlock"],
        STUCK,
    );
    assert_eq!(viol.status.code(), Some(1), "{}", stderr(&viol));
    let text = stdout(&viol);
    assert!(text.contains("AG property VIOLATED"), "{text}");
    assert!(text.contains("goal marking: {q}"), "{text}");
    assert!(text.contains("witness trace: go"), "{text}");

    // an AG property that holds: certificate again, exit 0
    let holds = julie_stdin(
        &["check", "-", "--engine=pdr", "--property=AG m(p) <= 1"],
        CYCLE,
    );
    assert_eq!(holds.status.code(), Some(0), "{}", stderr(&holds));
    assert!(stdout(&holds).contains("AG property holds"));
}

#[test]
fn check_rejects_unknown_engine() {
    let out = julie_stdin(&["check", "-", "--engine=quantum"], CYCLE);
    assert_eq!(out.status.code(), Some(3), "errors exit 3");
    assert!(stderr(&out).contains("unknown engine"));
}

#[test]
fn check_respects_max_states() {
    // a hit state budget is no longer an error: the partial exploration is
    // reported and the verdict is inconclusive (exit 2)
    let out = julie_stdin(&["check", "-", "--engine=full", "--max-states=1"], CYCLE);
    assert_eq!(out.status.code(), Some(2), "inconclusive exits 2");
    let text = stdout(&out);
    assert!(text.contains("verdict: inconclusive"), "{text}");
    assert!(text.contains("state budget exhausted"), "{text}");
    assert!(
        text.contains("states stored"),
        "coverage stats shown: {text}"
    );
}

#[test]
fn check_budget_flags_yield_inconclusive() {
    // an already-expired deadline: every engine must degrade gracefully
    for engine in ["full", "po", "bdd", "gpo", "unfold", "pdr"] {
        let out = julie_stdin(
            &["check", "-", &format!("--engine={engine}"), "--timeout=0"],
            CYCLE,
        );
        assert_eq!(
            out.status.code(),
            Some(2),
            "{engine}: expired deadline is inconclusive: {}",
            stderr(&out)
        );
        assert!(
            stdout(&out).contains("deadline exceeded"),
            "{engine}: {}",
            stdout(&out)
        );
    }
}

#[test]
fn gpo_deadline_during_the_r0_build_stores_nothing() {
    // NSDP(10)'s r0 build is the first thing gpo does: an expired deadline
    // stops it with the usual coverage line, and no snapshot is written
    let net = stdout(&julie(&["model", "nsdp", "10"]));
    let dir = std::env::temp_dir().join(format!("julie-r0-stop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("run.ckpt");
    let ckpt_flag = format!("--checkpoint={}", ckpt.display());
    let out = julie_stdin(
        &["check", "-", "--engine=gpo", "--timeout=0", &ckpt_flag],
        &net,
    );
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("budget: deadline exceeded — 0 states stored, 0 expanded, 0 on frontier"),
        "{text}"
    );
    assert!(text.contains("GPN states: 0"), "{text}");
    assert!(!ckpt.exists(), "no snapshot of an unbuilt r0");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_and_info_print_the_same_exact_r0_count() {
    // Fig. 2 with N = 70 has 2^70 valid sets, past u64::MAX
    let net = stdout(&julie(&["model", "fig2", "70"]));
    let check = julie_stdin(&["check", "-", "--engine=gpo"], &net);
    assert_eq!(check.status.code(), Some(1), "{}", stderr(&check));
    assert!(
        stdout(&check).contains("valid sets |r0|: 1180591620717411303424\n"),
        "{}",
        stdout(&check)
    );
    let info = julie_stdin(&["info", "-"], &net);
    assert!(info.status.success(), "{}", stderr(&info));
    assert!(
        stdout(&info).contains("|r0|: 1180591620717411303424\n"),
        "{}",
        stdout(&info)
    );
}

#[test]
fn json_counters_past_2_pow_53_are_exact() {
    // |r0| of Fig. 2 with N = 70 saturates the u64 counter; the JSON
    // prints u64::MAX itself, not its nearest f64
    let net = stdout(&julie(&["model", "fig2", "70"]));
    let check = julie_stdin(&["check", "-", "--engine=gpo", "--json"], &net);
    assert_eq!(check.status.code(), Some(1), "{}", stderr(&check));
    assert!(
        stdout(&check).contains("\"valid_sets\":18446744073709551615"),
        "{}",
        stdout(&check)
    );
}

#[test]
fn check_mem_limit_is_accepted() {
    // a generous memory budget leaves a tiny net's verdict untouched
    let out = julie_stdin(&["check", "-", "--engine=full", "--mem-limit=64"], CYCLE);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("deadlock-free"));
}

#[test]
fn deadlock_found_within_budget_still_exits_one() {
    // found counterexamples are sound even when the state budget was the
    // binding constraint: exit 1 beats exit 2
    let out = julie_stdin(&["check", "-", "--engine=full", "--max-states=2"], STUCK);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stdout(&out).contains("DEADLOCK possible"));
}

#[test]
fn unknown_flags_are_rejected_per_command() {
    // flag validation runs before the net is read, so these invocations
    // never touch stdin: spawn them without a pipe (julie_rejected)
    let out = julie_rejected(&["check", "-", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(3));
    let err = stderr(&out);
    assert!(err.contains("unknown flag `--frobnicate`"), "{err}");
    assert!(err.contains("--engine"), "lists supported flags: {err}");

    let typo = julie_rejected(&["check", "-", "--max-state=5"]);
    assert_eq!(typo.status.code(), Some(3), "near-miss flags rejected");
    assert!(stderr(&typo).contains("--max-states"), "suggests the list");

    let dot = julie_rejected(&["dot", "-", "--engine=full"]);
    assert_eq!(dot.status.code(), Some(3));
    assert!(stderr(&dot).contains("supported flags: --rg"));

    let info = julie_rejected(&["info", "-", "--rg"]);
    assert_eq!(info.status.code(), Some(3));
    assert!(stderr(&info).contains("takes no flags"));
}

#[test]
fn dot_outputs_graphviz() {
    let net_dot = julie_stdin(&["dot", "-"], CYCLE);
    assert!(stdout(&net_dot).starts_with("digraph \"cycle\""));
    let rg_dot = julie_stdin(&["dot", "-", "--rg"], CYCLE);
    assert!(stdout(&rg_dot).starts_with("digraph \"RG_cycle\""));
}

#[test]
fn parse_errors_are_reported_with_line_and_column() {
    let out = julie_stdin(&["info", "-"], "pl p\ntr broken p -> q\n");
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("line 2, column 11"), "{err}");
    assert!(
        err.contains("found `p`"),
        "names the offending token: {err}"
    );
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = julie(&["check", "/nonexistent/net.net"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn unknown_command_suggests_help() {
    let out = julie(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("try `julie help`"));
}

#[test]
fn model_pipeline_round_trips_through_check() {
    // julie model nsdp 2 | julie check - --engine=gpo
    let model = julie(&["model", "nsdp", "2"]);
    let out = julie_stdin(
        &["check", "-", "--engine=gpo", "--witnesses=2"],
        &stdout(&model),
    );
    assert_eq!(out.status.code(), Some(1), "deadlock exits 1");
    let text = stdout(&out);
    assert!(text.contains("GPN states: 3"));
    assert!(text.contains("DEADLOCK possible"));
    assert_eq!(text.matches("dead marking").count(), 2);
}

#[test]
fn unfold_command_reports_prefix() {
    let out = julie_stdin(&["unfold", "-"], CYCLE);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("events"));
    assert!(text.contains("cut-offs"));
    assert!(text.contains("deadlock-free"));
}

#[test]
fn unfold_dot_output() {
    let out = julie_stdin(&["unfold", "-", "--dot"], CYCLE);
    assert!(stdout(&out).starts_with("digraph prefix"));
}

#[test]
fn unfold_engine_in_check() {
    let out = julie_stdin(&["check", "-", "--engine=unfold"], STUCK);
    assert_eq!(
        out.status.code(),
        Some(1),
        "deadlock exits 1: {}",
        stderr(&out)
    );
    assert!(stdout(&out).contains("DEADLOCK possible"));
}

#[test]
fn unfold_engine_honours_its_deadline() {
    // RW(15) builds its prefix at once, but walking the cuts behind the
    // verdict takes practically forever: the walk must stop on time too
    let net = stdout(&julie(&["model", "rw", "15"]));
    let start = std::time::Instant::now();
    let out = julie_stdin(&["check", "-", "--engine=unfold", "--timeout=1"], &net);
    let elapsed = start.elapsed();
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("deadline exceeded"),
        "{}",
        stdout(&out)
    );
    assert!(elapsed.as_secs() < 10, "took {elapsed:?}");
}

#[test]
fn bdd_engine_stops_within_an_image_of_its_deadline() {
    // bdd's fixpoint on RW(18) runs far past one second: once polled per
    // breadth-first iteration, the deadline stopped it only after several
    // seconds. Polled before every transition image, it stops the run
    // within one image (a fraction of a second, even in a debug build)
    let net = stdout(&julie(&["model", "rw", "18"]));
    let start = std::time::Instant::now();
    let out = julie_stdin(
        &["check", "-", "--engine=bdd", "--threads=1", "--timeout=1"],
        &net,
    );
    let elapsed = start.elapsed();
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("budget: deadline exceeded"),
        "{}",
        stdout(&out)
    );
    assert!(elapsed.as_millis() < 3000, "took {elapsed:?}");
}

fn temp_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("julie-cli-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Extracts the `states: N` line from a check run's output.
fn states_line(text: &str) -> String {
    text.lines()
        .find(|l| l.starts_with("states:") || l.starts_with("GPN states:"))
        .expect("a states line")
        .to_string()
}

#[test]
fn checkpoint_flags_round_trip_via_cli() {
    let dir = temp_dir("roundtrip");
    let net_path = dir.join("nsdp4.net");
    std::fs::write(&net_path, petri::to_text(&models::nsdp(4))).unwrap();
    let net = net_path.to_str().unwrap();
    for engine in ["full", "po", "gpo"] {
        let ckpt = dir.join(format!("{engine}.ckpt"));
        let ckpt = ckpt.to_str().unwrap();
        let reference = julie(&["check", net, &format!("--engine={engine}")]);
        assert_eq!(reference.status.code(), Some(1), "{engine}: nsdp deadlocks");
        // interrupt with a state budget, leaving a snapshot behind
        let partial = julie(&[
            "check",
            net,
            &format!("--engine={engine}"),
            "--max-states=2",
            &format!("--checkpoint={ckpt}"),
        ]);
        assert_eq!(
            partial.status.code(),
            Some(2),
            "{engine}: inconclusive exits 2: {}",
            stderr(&partial)
        );
        // resume to the same verdict and state count as the reference
        let resumed = julie(&[
            "check",
            net,
            &format!("--engine={engine}"),
            &format!("--resume={ckpt}"),
        ]);
        assert_eq!(
            resumed.status.code(),
            Some(1),
            "{engine}: resumed run finds the deadlock: {}",
            stderr(&resumed)
        );
        assert_eq!(
            states_line(&stdout(&resumed)),
            states_line(&stdout(&reference)),
            "{engine}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_flag_misuse_is_rejected() {
    let every = julie_stdin(&["check", "-", "--checkpoint-every=5"], CYCLE);
    assert_eq!(every.status.code(), Some(3));
    assert!(
        stderr(&every).contains("requires --checkpoint"),
        "{}",
        stderr(&every)
    );

    let missing = julie_stdin(&["check", "-", "--resume=/nonexistent/x.ckpt"], CYCLE);
    assert_eq!(missing.status.code(), Some(3));
    assert!(
        stderr(&missing).contains("cannot resume"),
        "{}",
        stderr(&missing)
    );

    let bdd = julie_stdin(
        &["check", "-", "--engine=bdd", "--checkpoint=/tmp/x.ckpt"],
        CYCLE,
    );
    assert_eq!(bdd.status.code(), Some(3));
    assert!(
        stderr(&bdd).contains("does not support"),
        "{}",
        stderr(&bdd)
    );

    // pdr is deliberately non-resumable (its frames are not serialized):
    // --checkpoint must fail closed before any work runs
    let pdr = julie_stdin(
        &["check", "-", "--engine=pdr", "--checkpoint=/tmp/x.ckpt"],
        CYCLE,
    );
    assert_eq!(pdr.status.code(), Some(3));
    assert!(
        stderr(&pdr).contains("does not support"),
        "{}",
        stderr(&pdr)
    );
}

#[test]
fn pdr_fails_closed_on_resume() {
    // a real snapshot written by a checkpoint-capable engine must not be
    // resumable under --engine=pdr
    let dir = temp_dir("pdr-resume");
    let net_path = dir.join("nsdp4.net");
    std::fs::write(&net_path, petri::to_text(&models::nsdp(4))).unwrap();
    let net = net_path.to_str().unwrap();
    let ckpt_path = dir.join("snap.ckpt");
    let ckpt = ckpt_path.to_str().unwrap();
    let partial = julie(&[
        "check",
        net,
        "--engine=full",
        "--max-states=2",
        &format!("--checkpoint={ckpt}"),
    ]);
    assert_eq!(partial.status.code(), Some(2), "{}", stderr(&partial));
    let resumed = julie(&["check", net, "--engine=pdr", &format!("--resume={ckpt}")]);
    assert_eq!(resumed.status.code(), Some(3));
    assert!(
        stderr(&resumed).contains("does not support"),
        "{}",
        stderr(&resumed)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_checkpoints_are_rejected_with_a_clean_error() {
    let dir = temp_dir("corrupt");
    let net_path = dir.join("nsdp4.net");
    std::fs::write(&net_path, petri::to_text(&models::nsdp(4))).unwrap();
    let net = net_path.to_str().unwrap();
    let ckpt_path = dir.join("snap.ckpt");
    let ckpt = ckpt_path.to_str().unwrap();
    let partial = julie(&[
        "check",
        net,
        "--engine=full",
        "--max-states=2",
        &format!("--checkpoint={ckpt}"),
    ]);
    assert_eq!(partial.status.code(), Some(2), "{}", stderr(&partial));
    // flip a byte in the middle of the snapshot
    let mut bytes = std::fs::read(&ckpt_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&ckpt_path, &bytes).unwrap();
    let resumed = julie(&["check", net, "--engine=full", &format!("--resume={ckpt}")]);
    assert_eq!(resumed.status.code(), Some(3), "corrupt snapshots exit 3");
    // rejected either while reading the file or while validating the
    // decoded snapshot — both are typed checkpoint errors
    assert!(
        stderr(&resumed).contains("checkpoint"),
        "{}",
        stderr(&resumed)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The headline robustness invariant, end to end: a verification run
/// killed with SIGKILL mid-exploration resumes from its last periodic
/// snapshot and reaches the same verdict and state count as a run that
/// was never interrupted.
#[test]
fn sigkill_and_resume_reaches_the_uninterrupted_verdict() {
    use std::time::{Duration, Instant};
    let dir = temp_dir("sigkill");
    let net_path = dir.join("nsdp8.net");
    std::fs::write(&net_path, petri::to_text(&models::nsdp(8))).unwrap();
    let net = net_path.to_str().unwrap();
    let ckpt_path = dir.join("run.ckpt");
    let ckpt = ckpt_path.to_str().unwrap();

    let reference = julie(&["check", net, "--engine=full", "--threads=2"]);
    assert_eq!(reference.status.code(), Some(1), "{}", stderr(&reference));

    let mut child = Command::new(env!("CARGO_BIN_EXE_julie"))
        .args([
            "check",
            net,
            "--engine=full",
            "--threads=2",
            &format!("--checkpoint={ckpt}"),
            "--checkpoint-every=5000",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    // wait for the first periodic snapshot, then kill without warning
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ckpt_path.exists() && child.try_wait().expect("child polls").is_none() {
        assert!(Instant::now() < deadline, "no checkpoint ever appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().ok(); // SIGKILL on unix; a no-op if it already finished
    child.wait().expect("child reaped");
    assert!(ckpt_path.exists(), "a snapshot survived the kill");

    let resumed = julie(&[
        "check",
        net,
        "--engine=full",
        "--threads=2",
        &format!("--resume={ckpt}"),
    ]);
    assert_eq!(resumed.status.code(), Some(1), "{}", stderr(&resumed));
    let text = stdout(&resumed);
    assert!(text.contains("DEADLOCK possible"), "{text}");
    assert_eq!(
        states_line(&text),
        states_line(&stdout(&reference)),
        "resumed run explored the identical state space"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn info_shows_siphon_certificate() {
    let out = julie_stdin(&["info", "-"], CYCLE);
    assert!(stdout(&out).contains("siphon-trap certificate: deadlock-free"));
    let out2 = julie_stdin(&["info", "-"], STUCK);
    assert!(stdout(&out2).contains("siphon-trap certificate: inconclusive"));
}

/// A pure pipeline: series fusions collapse it completely, and the whole
/// witness trace is reconstructed by lifting alone.
const PIPE: &str = "net pipe\npl p0 *\npl p1\npl p2\npl p3\n\
                    tr a : p0 -> p1\ntr b : p1 -> p2\ntr c : p2 -> p3\n";

#[test]
fn check_reduce_shows_header_and_lifts_witness() {
    let out = julie_stdin(&["check", "-", "--engine=full", "--reduce"], PIPE);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("(reduced from 4/3)"),
        "header shows original sizes: {text}"
    );
    assert!(
        text.contains("reduction[sp,st,rp,it,dt]:"),
        "per-rule count line shown: {text}"
    );
    // the reduced net is empty; the witness exists only through lifting
    assert!(text.contains("dead marking: {p3}"), "{text}");
    assert!(text.contains("witness trace: a b c"), "{text}");
}

#[test]
fn check_reduce_verdicts_match_plain_for_every_engine() {
    for engine in ["full", "po", "gpo", "bdd", "unfold"] {
        let out = julie_stdin(
            &["check", "-", &format!("--engine={engine}"), "--reduce"],
            PIPE,
        );
        assert_eq!(
            out.status.code(),
            Some(1),
            "{engine}: reduced deadlock exits 1: {}",
            stderr(&out)
        );
        assert!(stdout(&out).contains("DEADLOCK possible"), "{engine}");
        let live = julie_stdin(
            &["check", "-", &format!("--engine={engine}"), "--reduce"],
            CYCLE,
        );
        assert_eq!(
            live.status.code(),
            Some(0),
            "{engine}: reduced live net exits 0: {}",
            stderr(&live)
        );
        assert!(stdout(&live).contains("deadlock-free"), "{engine}");
    }
}

#[test]
fn check_reduce_bdd_prints_statically_lifted_marking() {
    // the bdd engine finds a goal marking but no trace, so the marking is
    // lifted statically and labelled as such
    let out = julie_stdin(
        &[
            "check",
            "-",
            "--engine=bdd",
            "--reduce",
            "--property=EF m(p3) >= 1",
        ],
        PIPE,
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("goal marking (lifted): {p3}"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn check_reduce_po_prints_exactly_lifted_marking() {
    // po witnesses carry the trace that first reached them: it lifts to
    // the original net and replays there, so the marking is exact
    let out = julie_stdin(&["check", "-", "--engine=po", "--reduce"], PIPE);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("dead marking: {p3}\n"), "{text}");
    assert!(text.contains("witness trace: a b c\n"), "{text}");
    assert!(!text.contains("(lifted)"), "{text}");
}

#[test]
fn check_reduce_accepts_rule_subsets_and_rejects_unknown_rules() {
    let out = julie_stdin(&["check", "-", "--engine=full", "--reduce=st,dt"], PIPE);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("reduction[st,dt]:"),
        "{}",
        stdout(&out)
    );

    let bad = julie_stdin(&["check", "-", "--reduce=sp,bogus"], PIPE);
    assert_eq!(bad.status.code(), Some(3), "errors exit 3");
    assert!(
        stderr(&bad).contains("unknown reduction rule `bogus`"),
        "{}",
        stderr(&bad)
    );
}

#[test]
fn reduce_and_resume_mismatches_fail_closed_with_precise_diagnostics() {
    let dir = temp_dir("reduce-resume");
    let net_path = dir.join("nsdp6.net");
    std::fs::write(&net_path, petri::to_text(&models::nsdp(6))).unwrap();
    let net = net_path.to_str().unwrap();

    // a plain snapshot cannot be resumed under --reduce …
    let plain_ckpt = dir.join("plain.ckpt");
    let plain_ckpt = plain_ckpt.to_str().unwrap();
    let partial = julie(&[
        "check",
        net,
        "--engine=full",
        "--threads=1",
        "--max-states=50",
        &format!("--checkpoint={plain_ckpt}"),
    ]);
    assert_eq!(partial.status.code(), Some(2), "{}", stderr(&partial));
    let wrong = julie(&[
        "check",
        net,
        "--engine=full",
        "--reduce",
        &format!("--resume={plain_ckpt}"),
    ]);
    assert_eq!(wrong.status.code(), Some(3));
    assert!(
        stderr(&wrong).contains("written without --reduce"),
        "{}",
        stderr(&wrong)
    );

    // … and a --reduce snapshot names its rules when resumed differently
    let red_ckpt = dir.join("reduced.ckpt");
    let red_ckpt = red_ckpt.to_str().unwrap();
    let partial = julie(&[
        "check",
        net,
        "--engine=full",
        "--threads=1",
        "--reduce",
        "--max-states=50",
        &format!("--checkpoint={red_ckpt}"),
    ]);
    assert_eq!(partial.status.code(), Some(2), "{}", stderr(&partial));

    let plain = julie(&[
        "check",
        net,
        "--engine=full",
        &format!("--resume={red_ckpt}"),
    ]);
    assert_eq!(plain.status.code(), Some(3));
    assert!(
        stderr(&plain).contains("written with --reduce=sp,st,rp,it,dt"),
        "{}",
        stderr(&plain)
    );

    let other = julie(&[
        "check",
        net,
        "--engine=full",
        "--reduce=dt",
        &format!("--resume={red_ckpt}"),
    ]);
    assert_eq!(other.status.code(), Some(3));
    assert!(
        stderr(&other).contains("but this run uses --reduce=dt"),
        "{}",
        stderr(&other)
    );

    // matching flags resume cleanly to the full verdict
    let ok = julie(&[
        "check",
        net,
        "--engine=full",
        "--reduce",
        &format!("--resume={red_ckpt}"),
    ]);
    assert_eq!(
        ok.status.code(),
        Some(1),
        "matching --reduce resumes to the deadlock: {}",
        stderr(&ok)
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// --json output mode
// ---------------------------------------------------------------------

#[test]
fn json_mode_reports_verdicts_machine_readably() {
    let stuck = julie_stdin(&["check", "-", "--engine=full", "--json"], STUCK);
    assert_eq!(stuck.status.code(), Some(1));
    let doc = stdout(&stuck);
    let doc = doc.trim();
    assert!(doc.starts_with('{') && doc.ends_with('}'), "{doc}");
    assert!(doc.contains("\"verdict\":\"deadlock\""), "{doc}");
    assert!(doc.contains("\"exit_code\":1"), "{doc}");
    assert!(doc.contains("\"complete\":true"), "{doc}");
    assert!(doc.contains("\"budget\":null"), "{doc}");
    // the witness is structured: marking and trace, not prose
    assert!(doc.contains("\"marking\":\"{q}\""), "{doc}");
    assert!(doc.contains("\"trace\":[\"go\"]"), "{doc}");
    // exactly one line of output: scripts can pipe it straight to a parser
    assert_eq!(stdout(&stuck).trim().lines().count(), 1);

    let free = julie_stdin(&["check", "-", "--engine=full", "--json"], CYCLE);
    assert_eq!(free.status.code(), Some(0));
    assert!(stdout(&free).contains("\"verdict\":\"deadlock-free\""));
    assert!(stdout(&free).contains("\"witnesses\":[]"));
}

#[test]
fn json_mode_reports_partial_coverage_and_reduction() {
    let dir = temp_dir("jsonpartial");
    let net_path = dir.join("nsdp6.net");
    std::fs::write(&net_path, petri::to_text(&models::nsdp(6))).unwrap();
    let net = net_path.to_str().unwrap();

    let partial = julie(&["check", net, "--engine=full", "--max-states=10", "--json"]);
    assert_eq!(partial.status.code(), Some(2), "{}", stderr(&partial));
    let doc = stdout(&partial);
    assert!(doc.contains("\"verdict\":\"inconclusive\""), "{doc}");
    assert!(doc.contains("\"complete\":false"), "{doc}");
    assert!(
        doc.contains("\"exhausted\":\"state budget exhausted\""),
        "{doc}"
    );
    assert!(doc.contains("\"states_stored\":"), "{doc}");
    assert!(doc.contains("\"elapsed_secs\":"), "{doc}");

    let reduced = julie(&["check", net, "--engine=full", "--reduce", "--json"]);
    assert_eq!(reduced.status.code(), Some(1), "{}", stderr(&reduced));
    let doc = stdout(&reduced);
    // prose headers are suppressed: one JSON document, nothing else
    assert_eq!(doc.trim().lines().count(), 1, "{doc}");
    assert!(
        doc.contains("\"reduction\":{\"rules\":\"sp,st,rp,it,dt\""),
        "{doc}"
    );
    assert!(doc.contains("\"places_before\":"), "{doc}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// SIGINT/SIGTERM land the final checkpoint
// ---------------------------------------------------------------------

/// An interrupted `--checkpoint` run must not die mid-write: SIGINT trips
/// the budget's cancel flag, the engine writes its final snapshot, and
/// the process exits 2 (inconclusive) with the cancellation reported.
#[test]
fn sigint_writes_the_final_checkpoint_and_exits_2() {
    use std::time::{Duration, Instant};
    let dir = temp_dir("sigint");
    let net_path = dir.join("nsdp10.net");
    std::fs::write(&net_path, petri::to_text(&models::nsdp(10))).unwrap();
    let net = net_path.to_str().unwrap();
    let ckpt_path = dir.join("run.ckpt");
    let ckpt = ckpt_path.to_str().unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_julie"))
        .args([
            "check",
            net,
            "--engine=full",
            "--threads=1",
            &format!("--checkpoint={ckpt}"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // let the exploration get going (nsdp 10 runs for tens of seconds),
    // then interrupt it the way a terminal would
    std::thread::sleep(Duration::from_millis(1500));
    let delivered = Command::new("sh")
        .arg("-c")
        .arg(format!("kill -INT {}", child.id()))
        .status()
        .expect("kill runs")
        .success();
    assert!(delivered, "SIGINT delivered");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("waitable").is_none() {
        assert!(
            Instant::now() < deadline,
            "interrupted run exits promptly after writing its snapshot"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let out = child.wait_with_output().expect("output collected");
    assert_eq!(
        out.status.code(),
        Some(2),
        "interrupted run exits 2 (inconclusive): {}",
        stderr(&out)
    );
    assert!(
        stdout(&out).contains("budget: cancelled"),
        "cancellation is reported as a budget exhaustion: {}",
        stdout(&out)
    );
    assert!(ckpt_path.exists(), "final snapshot was written");

    // the snapshot is loadable: a resumed run picks the work back up
    // (a tiny state cap keeps this fast — loading is what's under test)
    let resumed = julie(&[
        "check",
        net,
        "--engine=full",
        "--max-states=5000",
        &format!("--resume={ckpt}"),
    ]);
    assert_eq!(
        resumed.status.code(),
        Some(2),
        "resume from the interrupt snapshot: {}",
        stderr(&resumed)
    );
    assert!(stdout(&resumed).contains("states:"), "{}", stdout(&resumed));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// --property: the quantified marking-predicate language
// ---------------------------------------------------------------------

/// Spelling out the default property must change nothing: same bytes on
/// stdout, same exit code, for every engine, in prose and JSON alike.
#[test]
fn explicit_default_property_is_byte_identical_to_propertyless_runs() {
    for engine in ["full", "po", "gpo", "bdd", "unfold", "pdr"] {
        let eng = format!("--engine={engine}");
        for net in [STUCK, CYCLE] {
            let plain = julie_stdin(&["check", "-", &eng], net);
            let spelled = julie_stdin(&["check", "-", &eng, "--property=EF deadlock"], net);
            assert_eq!(plain.status.code(), spelled.status.code(), "{engine}");
            assert_eq!(plain.stdout, spelled.stdout, "{engine}: prose differs");

            let plain = julie_stdin(&["check", "-", &eng, "--json"], net);
            let spelled = julie_stdin(
                &["check", "-", &eng, "--json", "--property=EF deadlock"],
                net,
            );
            assert_eq!(plain.stdout, spelled.stdout, "{engine}: json differs");
        }
    }
}

/// Non-default properties re-aim the verdict line, the exit code, and the
/// witness label — consistently across every engine that supports them.
#[test]
fn property_verdicts_and_exit_codes_agree_across_engines() {
    for engine in ["full", "po", "gpo", "bdd", "unfold"] {
        let eng = format!("--engine={engine}");

        // STUCK reaches {q}: the EF property holds, witness shown, exit 1
        let holds = julie_stdin(&["check", "-", &eng, "--property=EF m(q) >= 1"], STUCK);
        assert_eq!(holds.status.code(), Some(1), "{engine}: {}", stderr(&holds));
        let text = stdout(&holds);
        assert!(text.contains("property: EF m(q) >= 1"), "{engine}: {text}");
        assert!(
            text.contains("EF property HOLDS (witness found)"),
            "{engine}: {text}"
        );
        assert!(text.contains("goal marking"), "{engine}: {text}");
        assert!(text.contains("{q}"), "{engine}: {text}");

        // the same marking violates the AG phrasing of its negation
        let violated = julie_stdin(&["check", "-", &eng, "--property=AG m(q) = 0"], STUCK);
        assert_eq!(violated.status.code(), Some(1), "{engine}");
        assert!(
            stdout(&violated).contains("AG property VIOLATED (witness found)"),
            "{engine}: {}",
            stdout(&violated)
        );

        // CYCLE is 1-safe and live: the invariant holds, exit 0
        let safe = julie_stdin(&["check", "-", &eng, "--property=AG m(p) <= 1"], CYCLE);
        assert_eq!(safe.status.code(), Some(0), "{engine}: {}", stderr(&safe));
        assert!(stdout(&safe).contains("AG property holds"), "{engine}");

        // ... and an unreachable goal does not, also exit 0
        let never = julie_stdin(
            &["check", "-", &eng, "--property=EF m(p) >= 1 && m(q) >= 1"],
            CYCLE,
        );
        assert_eq!(never.status.code(), Some(0), "{engine}: {}", stderr(&never));
        assert!(
            stdout(&never).contains("EF property does not hold"),
            "{engine}: {}",
            stdout(&never)
        );
    }
}

#[test]
fn property_json_carries_the_canonical_text_and_reaimed_verdict() {
    let out = julie_stdin(
        &[
            "check",
            "-",
            "--engine=full",
            "--json",
            "--property=EF fireable( back )",
        ],
        CYCLE,
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let doc = stdout(&out);
    // the journaled text is canonical, not the user's spelling
    assert!(doc.contains("\"property\":\"EF fireable(back)\""), "{doc}");
    assert!(doc.contains("\"verdict\":\"holds\""), "{doc}");
    assert!(doc.contains("\"exit_code\":1"), "{doc}");
}

#[test]
fn property_file_flag_reads_the_property_from_disk() {
    let dir = temp_dir("propfile");
    let path = dir.join("prop.txt");
    std::fs::write(&path, "AG m(q) = 0\n").unwrap();
    let flag = format!("--property-file={}", path.display());
    let out = julie_stdin(&["check", "-", "--engine=full", &flag], STUCK);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("AG property VIOLATED"),
        "{}",
        stdout(&out)
    );

    let both = julie_stdin(&["check", "-", &flag, "--property=EF deadlock"], STUCK);
    assert_eq!(both.status.code(), Some(3));
    assert!(
        stderr(&both).contains("mutually exclusive"),
        "{}",
        stderr(&both)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_properties_are_rejected_with_flag_precise_diagnostics() {
    let syntax = julie_stdin(&["check", "-", "--property=EF m("], STUCK);
    assert_eq!(syntax.status.code(), Some(3));
    assert!(
        stderr(&syntax).contains("bad --property"),
        "{}",
        stderr(&syntax)
    );

    // name resolution happens against the net as written
    let unknown = julie_stdin(&["check", "-", "--property=EF m(nowhere) >= 1"], STUCK);
    assert_eq!(unknown.status.code(), Some(3));
    let err = stderr(&unknown);
    assert!(err.contains("bad --property"), "{err}");
    assert!(err.contains("nowhere"), "names the offender: {err}");
}

/// `classes` left the engine table: `julie check` and serve admission,
/// which both read the table, reject it like any unknown engine.
#[test]
fn classes_engine_is_unknown_to_check_and_serve() {
    let out = julie_stdin(&["check", "-", "--engine=classes"], STUCK);
    assert_eq!(out.status.code(), Some(3));
    assert!(stderr(&out).contains("unknown engine"), "{}", stderr(&out));

    let dir = temp_dir("classes-serve");
    let mut server = Command::new(env!("CARGO_BIN_EXE_julie"))
        .arg("serve")
        .arg(format!("--data-dir={}", dir.display()))
        .arg("--addr=127.0.0.1:0")
        .stdout(Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut lines = BufReader::new(server.stdout.take().expect("stdout piped")).lines();
    let port: u16 = loop {
        let line = lines
            .next()
            .expect("server listens before exiting")
            .unwrap();
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.rsplit(':').next().unwrap().parse().unwrap();
        }
    };
    let body = format!(
        "{{\"net\":\"{}\",\"engine\":\"classes\"}}",
        STUCK.replace('\n', "\\n")
    );
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connects");
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    server.kill().ok();
    server.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("unknown engine"), "{response}");
}

/// Property/resume mismatches fail closed exactly like `--reduce` ones: a
/// visible-set exploration for one property proves nothing about another.
#[test]
fn property_resume_mismatches_fail_closed_with_precise_diagnostics() {
    let dir = temp_dir("prop-resume");
    let net_path = dir.join("pipe.net");
    std::fs::write(&net_path, PIPE).unwrap();
    let net = net_path.to_str().unwrap();

    // a propertyless snapshot cannot be resumed under --property ...
    let plain_ckpt = dir.join("plain.ckpt");
    let plain_ckpt = plain_ckpt.to_str().unwrap();
    let partial = julie(&[
        "check",
        net,
        "--engine=full",
        "--max-states=2",
        &format!("--checkpoint={plain_ckpt}"),
    ]);
    assert_eq!(partial.status.code(), Some(2), "{}", stderr(&partial));
    let wrong = julie(&[
        "check",
        net,
        "--engine=full",
        "--property=EF m(p3) >= 1",
        &format!("--resume={plain_ckpt}"),
    ]);
    assert_eq!(wrong.status.code(), Some(3));
    assert!(
        stderr(&wrong).contains("written without --property"),
        "{}",
        stderr(&wrong)
    );

    // ... and a property snapshot names its property when resumed differently
    let prop_ckpt = dir.join("prop.ckpt");
    let prop_ckpt = prop_ckpt.to_str().unwrap();
    let partial = julie(&[
        "check",
        net,
        "--engine=full",
        "--property=EF m(p3) >= 1",
        "--max-states=2",
        &format!("--checkpoint={prop_ckpt}"),
    ]);
    assert_eq!(partial.status.code(), Some(2), "{}", stderr(&partial));

    let plain = julie(&[
        "check",
        net,
        "--engine=full",
        &format!("--resume={prop_ckpt}"),
    ]);
    assert_eq!(plain.status.code(), Some(3));
    assert!(
        stderr(&plain).contains("written with --property 'EF m(p3) >= 1'"),
        "{}",
        stderr(&plain)
    );

    let other = julie(&[
        "check",
        net,
        "--engine=full",
        "--property=EF m(p2) >= 1",
        &format!("--resume={prop_ckpt}"),
    ]);
    assert_eq!(other.status.code(), Some(3));
    assert!(
        stderr(&other).contains("but this run uses --property 'EF m(p2) >= 1'"),
        "{}",
        stderr(&other)
    );

    // the matching property resumes cleanly to the goal
    let ok = julie(&[
        "check",
        net,
        "--engine=full",
        "--property=EF m(p3) >= 1",
        &format!("--resume={prop_ckpt}"),
    ]);
    assert_eq!(
        ok.status.code(),
        Some(1),
        "matching --property resumes to the goal: {}",
        stderr(&ok)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--reduce` under a property must not fuse the observed place away: the
/// witness marking names it directly, no lifting required.
#[test]
fn reduce_keeps_observed_places_intact() {
    // propertyless reduction collapses the whole pipeline (see
    // check_reduce_shows_header_and_lifts_witness); observing p1 pins it
    let out = julie_stdin(
        &[
            "check",
            "-",
            "--engine=full",
            "--reduce",
            "--property=EF m(p1) >= 1",
        ],
        PIPE,
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("goal marking: {p1}"), "{text}");
    // the verdict agrees with the unreduced run
    let plain = julie_stdin(
        &["check", "-", "--engine=full", "--property=EF m(p1) >= 1"],
        PIPE,
    );
    assert_eq!(plain.status.code(), Some(1), "{}", stderr(&plain));
}

// ---------------------------------------------------------------------
// PNML input
// ---------------------------------------------------------------------

fn fixture(name: &str) -> String {
    format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn pnml_files_are_detected_by_extension_and_checked() {
    let toggle = julie(&["check", &fixture("toggle.pnml"), "--engine=full"]);
    assert_eq!(toggle.status.code(), Some(0), "{}", stderr(&toggle));
    assert!(
        stdout(&toggle).contains("deadlock-free"),
        "{}",
        stdout(&toggle)
    );

    let handoff = julie(&["check", &fixture("handoff.pnml"), "--engine=full"]);
    assert_eq!(handoff.status.code(), Some(1), "{}", stderr(&handoff));
    let text = stdout(&handoff);
    assert!(text.contains("dead marking: {done}"), "{text}");
    assert!(text.contains("witness trace: start finish"), "{text}");

    // nested pages and toolspecific clutter parse; the join deadlocks
    let fork = julie(&["check", &fixture("fork-join.pnml"), "--engine=full"]);
    assert_eq!(fork.status.code(), Some(1), "{}", stderr(&fork));
    assert!(
        stdout(&fork).contains("dead marking: {end}"),
        "{}",
        stdout(&fork)
    );
}

#[test]
fn pnml_on_stdin_is_sniffed_and_format_flag_overrides() {
    let pnml = std::fs::read_to_string(fixture("handoff.pnml")).unwrap();
    // content sniffing: stdin has no extension to go by
    let sniffed = julie_stdin(&["check", "-", "--engine=full"], &pnml);
    assert_eq!(sniffed.status.code(), Some(1), "{}", stderr(&sniffed));

    // the explicit flag gives the same answer
    let explicit = julie_stdin(&["check", "-", "--engine=full", "--format=pnml"], &pnml);
    assert_eq!(explicit.stdout, sniffed.stdout);

    // --format=net forces the native parser, which rejects the XML
    let forced = julie_stdin(&["check", "-", "--format=net"], &pnml);
    assert_eq!(forced.status.code(), Some(3));

    let bad = julie_stdin(&["check", "-", "--format=sbml"], &pnml);
    assert_eq!(bad.status.code(), Some(3));
    assert!(
        stderr(&bad).contains("bad --format `sbml`"),
        "{}",
        stderr(&bad)
    );
}

#[test]
fn pnml_works_with_properties_and_other_subcommands() {
    let out = julie(&[
        "check",
        &fixture("toggle.pnml"),
        "--engine=po",
        "--property=EF m(off) >= 1",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("EF property HOLDS"),
        "{}",
        stdout(&out)
    );

    let info = julie(&["info", &fixture("fork-join.pnml")]);
    assert_eq!(info.status.code(), Some(0), "{}", stderr(&info));
    assert!(stdout(&info).contains("fork-join"), "{}", stdout(&info));
}

// ---------------------------------------------------------------------
// the --engine=auto portfolio
// ---------------------------------------------------------------------

/// `--engine=auto` races the portfolio, prints the per-leg table, and
/// exits with the winner's verdict code.
#[test]
fn auto_engine_prints_the_leg_table() {
    let out = julie_stdin(
        &["check", "-", "--engine=auto", "--stage-delay-ms=0"],
        STUCK,
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("legs:"), "{text}");
    assert!(text.contains("won"), "{text}");
    // every raceable engine has a row
    for leg in ["po", "gpo", "bdd", "unfold", "full"] {
        assert!(text.contains(leg), "missing leg {leg}: {text}");
    }
}

/// Portfolio-only flags are rejected on solo engines with a diagnostic.
#[test]
fn portfolio_flags_require_engine_auto() {
    for flag in ["--legs=po/full", "--stage-delay-ms=10", "--watchdog-secs=5"] {
        let out = julie_rejected(&["check", "-", "--engine=po", flag]);
        assert_eq!(out.status.code(), Some(3), "{flag}");
        assert!(
            stderr(&out).contains("--engine=auto"),
            "{flag}: {}",
            stderr(&out)
        );
    }
}

/// A malformed `--legs` schedule is rejected with the parser's message.
#[test]
fn bad_legs_schedules_are_rejected() {
    for (legs, why) in [
        ("--legs=warp", "unknown leg"),
        ("--legs=po,po", "twice"),
        ("--legs=po//full", "empty stage"),
    ] {
        let out = julie_rejected(&["check", "-", "--engine=auto", legs]);
        assert_eq!(out.status.code(), Some(3), "{legs}");
        assert!(stderr(&out).contains(why), "{legs}: {}", stderr(&out));
    }
}

// ---------------------------------------------------------------------
// Snapshots written by the build before the packed state table
// ---------------------------------------------------------------------

/// `tests/fixtures/pre-origins-snapshots` holds NSDP(4) snapshots that the
/// build before the packed state table wrote at one thread, each stopped
/// by `--max-states`. Its full snapshot recorded edges and no origins, and
/// its po snapshot no provenance at all: resuming either fails closed,
/// naming the cause. Its gpo snapshot is in today's format and resumes to
/// the uninterrupted report.
#[test]
fn snapshots_of_the_previous_build_resume_or_fail_closed() {
    let net = fixture("pre-origins-snapshots/nsdp4.net");
    let resume = |engine: &str| {
        julie(&[
            "check",
            &net,
            &format!("--engine={engine}"),
            "--threads=1",
            &format!(
                "--resume={}",
                fixture(&format!("pre-origins-snapshots/{engine}.ckpt"))
            ),
        ])
    };
    for engine in ["full", "po"] {
        let refused = resume(engine);
        assert_eq!(refused.status.code(), Some(3), "{}", stdout(&refused));
        let err = stderr(&refused);
        assert!(
            err.contains("no state origins") && err.contains("restart without --resume"),
            "{engine}: {err}"
        );
    }
    let without_zdd = |s: String| -> String {
        s.lines()
            .filter(|l| !l.starts_with("zdd:"))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    let resumed = resume("gpo");
    assert_eq!(resumed.status.code(), Some(1), "{}", stderr(&resumed));
    let fresh = julie(&["check", &net, "--engine=gpo", "--threads=1"]);
    assert_eq!(without_zdd(stdout(&resumed)), without_zdd(stdout(&fresh)));
}

// ---------------------------------------------------------------------
// A reader that closes standard output early
// ---------------------------------------------------------------------

/// `julie info asat8.net | head -1`: once the reader has gone, the rest of
/// the output is dropped and the command still exits 0, without a panic.
#[test]
fn a_closed_stdout_ends_quietly() {
    let dir = temp_dir("closed-stdout");
    let net = dir.join("asat8.net");
    std::fs::write(&net, petri::to_text(&models::asat(8))).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_julie"))
        .args(["info", net.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // drop the read end before julie prints: every write then hits a
    // closed pipe
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary finishes");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

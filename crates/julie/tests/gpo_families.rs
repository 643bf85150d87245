//! `julie check --engine=gpo` runs on ZDD families only: valid-set
//! relations far past what an explicit enumeration could list are
//! decided, `--zdd` changes nothing, and a snapshot holding explicit
//! families fails closed on `--resume`, naming them.

use std::io::Write;
use std::process::{Command, Output, Stdio};

use gpo_core::{analyze, ExplicitFamily, GpoOptions};
use petri::{Budget, CheckpointConfig};

fn julie(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_julie"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Runs `julie args` with `stdin` piped in.
fn julie_stdin(args: &[&str], stdin: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_julie"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut handle = child.stdin.take().expect("stdin piped");
    handle.write_all(stdin).expect("stdin written");
    drop(handle);
    child.wait_with_output().expect("binary finishes")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn check_decides_fig2_past_the_old_limit() {
    // 2^40 valid sets: the explicit enumeration stopped at 2^24
    let model = julie(&["model", "fig2", "40"]);
    assert!(model.status.success());
    let out = julie_stdin(&["check", "-", "--engine=gpo"], &model.stdout);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "deadlock exits 1: {text}");
    assert!(text.contains("GPN states: 2"), "{text}");
    assert!(text.contains("valid sets |r0|: 1099511627776"), "{text}");
    assert!(text.contains("zdd: "), "{text}");
}

#[test]
fn zdd_flag_changes_nothing() {
    let model = julie(&["model", "nsdp", "4"]);
    for extra in [&[][..], &["--json"][..], &["--witnesses=3"][..]] {
        let mut args = vec!["check", "-", "--engine=gpo", "--threads=1"];
        args.extend_from_slice(extra);
        let plain = julie_stdin(&args, &model.stdout);
        args.push("--zdd");
        let zdd = julie_stdin(&args, &model.stdout);
        assert_eq!(plain.status.code(), Some(1), "{extra:?}");
        assert_eq!(zdd.status.code(), plain.status.code(), "{extra:?}");
        assert_eq!(stdout(&zdd), stdout(&plain), "{extra:?}");
    }
}

#[test]
fn explicit_family_snapshots_fail_closed_on_resume() {
    let dir = std::env::temp_dir().join(format!("julie-gpo-families-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let net_path = dir.join("nsdp3.net");
    let text = stdout(&julie(&["model", "nsdp", "3"]));
    std::fs::write(&net_path, &text).unwrap();
    // what `--engine=gpo --checkpoint` wrote before gpo ran on ZDD
    // families only
    let ckpt = dir.join("explicit.ckpt");
    let net = petri::parse_net(&text).unwrap();
    let partial = analyze::<ExplicitFamily>(
        &net,
        &GpoOptions::default(),
        &Budget::default().cap_states(1),
        &CheckpointConfig::at(&ckpt),
        None,
    )
    .unwrap();
    assert!(!partial.is_complete());
    let out = julie(&[
        "check",
        net_path.to_str().unwrap(),
        "--engine=gpo",
        &format!("--resume={}", ckpt.display()),
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{err}");
    assert!(err.contains("explicit families"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

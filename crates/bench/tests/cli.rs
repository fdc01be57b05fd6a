//! The `proram-bench` command line: a name or flag the chosen subcommand
//! does not take prints usage and exits 1 — it is never silently
//! ignored — `list` prints the experiment registry, and a chart that
//! cannot be written fails the run only after every table has printed.

use proram_bench::exp;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_proram-bench"))
        .args(args)
        .output()
        .expect("proram-bench runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = bench(args);
    assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
    assert!(out.stdout.is_empty(), "{args:?} must print nothing");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: proram-bench"), "{args:?}: {stderr}");
}

#[test]
fn unknown_names_print_usage() {
    assert_usage_error(&[]);
    assert_usage_error(&["fig99"]);
    assert_usage_error(&["trace"]);
    assert_usage_error(&["trace", "no_such_benchmark"]);
}

#[test]
fn retired_subcommands_are_gone() {
    for name in ["hotpath", "treetop", "crash", "pipeline", "fault"] {
        assert_usage_error(&[name]);
    }
}

#[test]
fn misplaced_flags_are_errors() {
    assert_usage_error(&["table1", "--trace", "x.jsonl"]);
    assert_usage_error(&["table1", "--ms", "50"]);
    assert_usage_error(&["table1", "--out", "x.json"]);
    assert_usage_error(&["obs", "--jobs", "2"]);
    assert_usage_error(&["obs", "--svg", "figures"]);
    assert_usage_error(&["trace", "fft", "--jobs", "2"]);
    assert_usage_error(&["list", "--scale", "quick"]);
    // A known flag with a bad or missing value.
    assert_usage_error(&["table1", "--jobs", "0"]);
    assert_usage_error(&["table1", "--scale", "huge"]);
    assert_usage_error(&["table1", "--ops"]);
}

#[test]
fn an_unwritable_svg_dir_prints_every_table_and_exits_1() {
    let args = [
        "fig8",
        "--scale",
        "quick",
        "--ops",
        "200",
        "--fp-scale",
        "0.01",
    ];
    let plain = bench(&args);
    assert!(plain.status.success());
    let tables = String::from_utf8_lossy(&plain.stdout)
        .matches("== Figure 8")
        .count();
    assert_eq!(tables, 3);
    // A directory under a regular file can never be created.
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_svg_blocker");
    std::fs::write(&file, b"").unwrap();
    let svg_dir = file.join("svg");
    let out = bench(&[&args[..], &["--svg", svg_dir.to_str().unwrap()]].concat());
    assert_eq!(
        out.status.code(),
        Some(1),
        "a chart not written fails the run"
    );
    assert_eq!(out.stdout, plain.stdout, "every table still prints");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.matches("cannot write").count(), tables, "{stderr}");
}

#[test]
fn list_prints_the_registry() {
    let out = bench(&["list"]);
    assert!(out.status.success());
    let names: Vec<&str> = exp::EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .collect::<Vec<_>>(),
        names
    );
}

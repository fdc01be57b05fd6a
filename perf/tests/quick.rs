//! The `perf` binary end to end at `--quick` sizes: what a CI step calls.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "sim_oram_bound",
    "sim_cache_bound",
    "ctrl_encrypted",
    "ctrl_durable",
];

fn perf(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("the perf binary starts")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn quick_run_covers_every_workload_and_kernel_and_compares_clean_with_itself() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick.json");
    let out = out.to_str().expect("utf-8 path");
    let run = perf(&["run", "--quick", "--seed", "7", "--out", out]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(out).expect("the report was written");
    let doc = Json::parse(&text).expect("the report parses");

    for key in ["nproc", "cpu", "rustc", "git_commit"] {
        assert!(doc.path(&["host", key]).is_some(), "host.{key}");
    }
    assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(7.0));
    let nproc = doc.path(&["host", "nproc"]).and_then(Json::as_f64);
    let nproc = nproc.expect("host.nproc");
    let mut e2e_names = Vec::new();
    for w in WORKLOADS {
        let failed = doc.path(&["workloads", w, "failed"]).and_then(Json::as_f64);
        assert_eq!(failed, Some(0.0), "{w}");
        let value = |group: &str, name: &str| {
            doc.path(&["workloads", w, group, name, "value"])
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{w}: {group}.{name}"))
        };
        for name in ["setup_s", "ops_per_s", "peak_rss_mb", "sim_cycles_per_op"] {
            assert!(value("end_to_end", name) > 0.0, "{w}: {name}");
        }
        // A p99 needs 100k per-op samples; at quick sizes one workload
        // has them, and the controller workloads never do.
        let p99 = doc
            .path(&["workloads", w, "end_to_end", "sim_cycles_p99", "value"])
            .and_then(Json::as_f64);
        match w {
            "sim_cache_bound" => assert!(p99.is_some_and(|v| v > 0.0)),
            _ => assert_eq!(p99, None, "{w}"),
        }
        assert_eq!(value("end_to_end", "fail_share"), 0.0);
        // Kernels and differentials do not depend on the workload.
        for name in [
            "eviction.read_path_ns",
            "storage.write_path_ns",
            "storage.verify_path_ns",
            "crypto.cipher_gbps",
            "crypto.mac_gbps",
            "storage.encrypted_minus_opaque_ns",
            "journal.durable_minus_encrypted_ns",
            "core.access_self_ns",
            "crash.recover_ms",
            "obs.events_per_op",
        ] {
            assert!(value("per_layer", name) > 0.0, "{w}: {name}");
        }
        // Measured at 2 threads, so only where the host has 2 cores.
        for name in ["par.pool_dispatch_ns", "par.shard_batch_speedup_2t"] {
            assert_eq!(value("per_layer", name) > 0.0, nproc >= 2.0, "{w}: {name}");
        }
        let spans = if w.starts_with("sim_") {
            ["workloads.next_op_ns", "sim.step_ns", "sim.step_dram_ns"]
        } else {
            [
                "oram.resolve_posmap_ns",
                "oram.read_path_ns",
                "oram.write_path_ns",
            ]
        };
        for name in spans {
            assert!(value("per_layer", name) > 0.0, "{w}: {name}");
        }
        let problems = doc
            .path(&["workloads", w, "split_problems"])
            .and_then(Json::as_arr);
        assert_eq!(problems.map(<[Json]>::len), Some(0), "{w}");
        for group in ["end_to_end", "per_layer"] {
            let names = doc
                .path(&["workloads", w, group])
                .and_then(Json::as_obj)
                .expect(group);
            assert!(
                names.iter().all(|(name, _)| well_formed(name)),
                "{w}: {group}"
            );
            if group == "end_to_end" {
                e2e_names = names.iter().map(|(name, _)| name.clone()).collect();
            }
        }
    }
    assert_eq!(e2e_names.len(), 8);
    let speedup = doc.path(&[
        "workloads",
        "sim_oram_bound",
        "end_to_end",
        "dyn_speedup",
        "value",
    ]);
    assert!(speedup.and_then(Json::as_f64).is_some_and(|v| v > 0.0));

    let same = perf(&["compare", out, out]);
    assert!(same.status.success(), "a report is no regression of itself");
    let rows = String::from_utf8_lossy(&same.stdout);
    // A header, a row per (workload, metric), a sim_digest line per workload.
    assert_eq!(
        rows.lines().count(),
        1 + WORKLOADS.len() * e2e_names.len() + WORKLOADS.len()
    );
    assert_eq!(rows.matches("identical").count(), WORKLOADS.len());

    // A report that lost a workload is a regression; one of other inputs
    // is refused.
    let edited = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick_edited.json");
    let edited = edited.to_str().expect("utf-8 path");
    let mut lost = doc.clone();
    let kept: Vec<(String, Json)> = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .expect("workloads")[1..]
        .to_vec();
    lost.set("workloads", Json::Obj(kept));
    std::fs::write(edited, lost.pretty()).expect("writable");
    let run = perf(&["compare", out, edited]);
    assert_eq!(run.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&run.stdout).contains("MISSING"));
    let mut other_seed = doc.clone();
    other_seed.set("seed", 8u64);
    std::fs::write(edited, other_seed.pretty()).expect("writable");
    let run = perf(&["compare", out, edited]);
    assert_eq!(run.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&run.stderr).contains("not comparable"));
}

#[test]
fn driver_mode_prints_the_result_object_last() {
    for (trace, expect) in [("0", "ops_per_s"), ("1", "trace.overhead_share")] {
        let run = perf(&[
            "--quick",
            "--workload",
            "ctrl_durable",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8_lossy(&run.stdout);
        let last = Json::parse(stdout.lines().last().expect("a result line")).expect("parses");
        let keys: Vec<&str> = last
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = last.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert!(
            metrics.iter().any(|(name, _)| name == expect),
            "--trace {trace}"
        );
        for (name, m) in metrics {
            assert!(well_formed(name), "{name}");
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
        }
    }
    assert!(!perf(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0"
    ])
    .status
    .success());
}

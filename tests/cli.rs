//! The `acr_cli` usage contract: every usage error exits 2 with exactly
//! one `error:` line on stderr and nothing on stdout, before any workload
//! is generated; `help` documents every flag.

use std::process::{Command, Output};

fn acr_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_acr_cli"))
        .args(args)
        .output()
        .expect("acr_cli runs")
}

#[track_caller]
fn assert_usage_error(args: &[&str]) {
    let out = acr_cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{args:?}: {stderr}");
    assert!(lines[0].starts_with("error: "), "{args:?}: {stderr}");
}

/// Every subcommand with a flag that takes a value and a malformed value
/// for it.
const VALUED: &[(&str, &str, &str)] = &[
    ("inject", "--seed", "x"),
    ("trace", "--faults", "0"),
    ("profile", "--top", "-1"),
    ("bench", "--reps", "0"),
    ("diff", "--tolerance-pct", "-5"),
    ("soak", "--models", "nope"),
    ("shrink", "--kinds", "nope"),
    ("experiment", "--errors", "many"),
];

#[test]
fn unknown_flags_missing_and_malformed_values_exit_2() {
    for sub in [
        "inject",
        "trace",
        "profile",
        "bench",
        "diff",
        "explain",
        "soak",
        "shrink",
        "experiment",
        "workloads",
        "help",
    ] {
        assert_usage_error(&[sub, "--no-such-flag"]);
    }
    for &(sub, flag, bad) in VALUED {
        assert_usage_error(&[sub, flag]);
        assert_usage_error(&[sub, flag, bad]);
    }
    assert_usage_error(&["no-such-subcommand"]);
    assert_usage_error(&["inject", "stray"]);
    assert_usage_error(&["diff", "only-one.json"]);
    assert_usage_error(&["explain"]);
}

#[test]
fn threads_and_scale_are_range_checked_before_any_work() {
    for sub in [
        "inject",
        "trace",
        "profile",
        "bench",
        "soak",
        "shrink",
        "experiment",
    ] {
        for threads in ["0", "65", "100000"] {
            assert_usage_error(&[sub, "--threads", threads]);
        }
        for scale in ["0", "-1", "nan", "inf"] {
            assert_usage_error(&[sub, "--scale", scale]);
        }
    }
}

#[test]
fn per_subcommand_checks_stay_where_the_value_is_used() {
    // trace needs a sampling interval; inject reads 0 as "off".
    assert_usage_error(&["trace", "--sample-interval", "0"]);
    // shrink and experiment run one workload.
    assert_usage_error(&["shrink", "--workload", "cg,is"]);
    assert_usage_error(&["experiment", "--workload", "cg,is"]);
    assert_usage_error(&["inject", "--latency", "1.5"]);
    assert_usage_error(&["diff", "--host-gate", "maybe", "a.json", "b.json"]);
}

/// Writes the repro document `shrink --workload cg --seed 42 --faults 10
/// --checkpoints 4` emits, with `generations` and its one fault's fields
/// substituted, and returns its path.
fn repro_file(name: &str, generations: u64, core: u64, addr: &str, bit: u64) -> String {
    let path = format!("{}/{name}.repro.json", env!("CARGO_TARGET_TMPDIR"));
    let doc = format!(
        r#"{{
  "schema": "acr.repro.v1",
  "workload": "cg",
  "case": 0,
  "seed": "0x2a",
  "threads": 2,
  "scale": "0.05",
  "checkpoints": 4,
  "latency": "0.5",
  "policy": "acr",
  "recovery_faults": false,
  "generations": {generations},
  "watchdog_budget": 0,
  "trigger": "divergence",
  "probable_cause": "mem fault (0x80b0) planned at progress 1",
  "original_faults": 10,
  "faults": [
    {{"at": 1, "core": {core}, "kind": "mem", "addr": "{addr}", "bit": {bit}}}
  ]
}}
"#
    );
    std::fs::write(&path, doc).expect("writes the repro document");
    path
}

#[test]
fn replay_rejects_faults_the_planner_cannot_produce() {
    for (name, core, addr, bit, field) in [
        ("bad_addr", 0, "0xffffffffffffff80", 0, "addr"),
        ("bad_core", 2, "0x80", 0, "core"),
        ("bad_bit", 0, "0x80", 64, "bit"),
    ] {
        let path = repro_file(name, 1, core, addr, bit);
        assert_usage_error(&["shrink", "--replay", &path]);
        let stderr = String::from_utf8(acr_cli(&["shrink", "--replay", &path]).stderr).unwrap();
        assert!(stderr.contains(&format!("field `{field}`")), "{stderr}");
    }
}

#[test]
fn huge_generation_counts_allocate_nothing_up_front() {
    // Four billion retained generations once meant two `with_capacity`
    // calls asking for hundreds of gigabytes.
    let path = repro_file("many_generations", 4_000_000_000, 0, "0x80", 0);
    let out = acr_cli(&["shrink", "--replay", &path]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("reproduced: trigger divergence"),
        "{stdout}"
    );
    let out = acr_cli(&[
        "inject",
        "--generations",
        "4000000000",
        "--faults",
        "2",
        "--workloads",
        "cg",
        "--scale",
        "0.03",
        "--threads",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn help_lists_every_flag() {
    let out = acr_cli(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8(out.stdout).unwrap();
    for flag in [
        "--workload",
        "--workloads",
        "--threads",
        "--scale",
        "--seed",
        "--faults",
        "--kinds",
        "--storm",
        "--checkpoints",
        "--latency",
        "--watchdog-budget",
        "--policy",
        "--scheme",
        "--recovery-faults",
        "--generations",
        "--sample-interval",
        "--jobs",
        "--progress",
        "--print-metrics",
        "--csv",
        "--metrics-out",
        "--manifest-out",
        "--postmortem-dir",
        "--out",
        "--detail",
        "--flame-out",
        "--ledger-out",
        "--trace-out",
        "--top",
        "--name",
        "--reps",
        "--warmup",
        "--tolerance-pct",
        "--host-gate",
        "--cases",
        "--budget-secs",
        "--chunk",
        "--models",
        "--resilience",
        "--cursor",
        "--case",
        "--max-evals",
        "--replay",
        "--errors",
        "--threshold",
        "--addrmap",
        "--secondary",
        "--adaptive",
        "--oracle",
    ] {
        assert!(
            help.lines()
                .any(|l| l.trim_start().starts_with(&format!("{flag} ")) || l.trim() == flag),
            "help does not list {flag}"
        );
    }
    for sub in [
        "inject",
        "trace",
        "profile",
        "bench",
        "diff",
        "explain",
        "soak",
        "shrink",
        "experiment",
    ] {
        assert!(
            help.contains(&format!("acr_cli {sub} ")),
            "help omits {sub}"
        );
    }
}

/// Runs `acr_cli args` with a stdout whose read end is already closed, as
/// under `acr_cli … | head -0`.
fn acr_cli_into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_acr_cli"))
        .args(args)
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("acr_cli runs")
        .wait_with_output()
        .expect("acr_cli finishes")
}

#[test]
fn a_closed_stdout_keeps_the_exit_status_and_never_panics() {
    let out = acr_cli_into_closed_pipe(&["inject", "--seed", "42", "--faults", "200"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "inject: {stderr}");
    assert!(!stderr.contains("panicked"), "inject: {stderr}");

    // A postmortem bundle to explain: a forced-divergence campaign (exit 1).
    let dir = format!("{}/closed-stdout-pm", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_dir_all(&dir);
    let made = acr_cli(&[
        "inject",
        "--seed",
        "42",
        "--faults",
        "30",
        "--workloads",
        "cg",
        "--scale",
        "0.03",
        "--threads",
        "2",
        "--kinds",
        "mem",
        "--postmortem-dir",
        &dir,
    ]);
    assert_eq!(made.status.code(), Some(1), "the campaign diverges");
    let bundle = std::fs::read_dir(&dir)
        .expect("bundles written")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("a bundle");
    let out = acr_cli_into_closed_pipe(&["explain", bundle.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "explain: {stderr}");
    assert!(!stderr.contains("panicked"), "explain: {stderr}");
}

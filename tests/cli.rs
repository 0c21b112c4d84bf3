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

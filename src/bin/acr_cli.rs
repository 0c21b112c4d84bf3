//! `acr_cli` — command-line front end for the ACR reproduction.
//!
//! The `inject` subcommand runs a deterministic fault-injection and
//! recovery-verification campaign over the bundled workloads: same seed,
//! byte-identical output. The `trace` subcommand runs one ACR execution
//! under injected recoverable faults with the trace sink attached and
//! exports a Chrome `trace_event` JSON (loadable in Perfetto /
//! `chrome://tracing`) plus optional interval-sampled metrics as JSONL.
//! The `profile` subcommand runs the same faulted execution with the
//! attribution profiler and the omission-decision ledger attached and
//! exports a collapsed-stack flamegraph (speedscope / inferno) plus a
//! ledger text report — byte-identical for a given seed.
//!
//! Host-performance observability rides alongside: `inject`/`trace`/
//! `profile` emit a machine-readable run manifest behind `--manifest-out`
//! (sim-deterministic hashes + host timings), `bench` times the reference
//! campaign over warmup + N repetitions into `BENCH_<name>.json`, and
//! `diff` compares two manifests — byte-exact on the sim section,
//! tolerance-band on host timings — exiting nonzero on a regression.

use std::fmt::Write as _;
use std::process::ExitCode;

use acr::{
    run_campaign_sweep, run_faulted_sweep, CampaignSweepItem, Experiment, ExperimentError,
    ExperimentSpec, FaultedSweepItem,
};
use acr_ckpt::{
    default_models, default_resilience, fault_from_json, fault_to_json, run_soak, CampaignConfig,
    CampaignError, CaseOutcome, CkptError, OmitReason, ParallelRunner, Scheme, ShrinkConfig,
    SoakCursor, SoakGrid, SoakModel, SoakResilience, POSTMORTEM_SCHEMA, REPRO_SCHEMA,
};
use acr_mem::CoreId;
use acr_sim::{Fault, FaultKind, FaultKindSet, FaultStorm};
use acr_trace::{
    chrome_trace_json, diff_manifests, fnv1a, merge_loads, parse_json, BenchStats, DiffOptions,
    Fnv1a, HostPerf, Json, Manifest, MetricsRegistry, Stopwatch, TraceEvent, WorkerLoad,
    TRACK_ENGINE,
};
use acr_workloads::{generate, Benchmark, WorkloadConfig};

const USAGE: &str = "\
acr_cli — ACR (Amnesic Checkpointing and Recovery) reproduction driver

USAGE:
    acr_cli inject [OPTIONS]     run a deterministic fault-injection campaign
    acr_cli trace [OPTIONS]      trace one ACR run under injected faults
    acr_cli profile [OPTIONS]    attribution-profile one ACR run: per-PC cycle
                                 accounting, omission-decision ledger,
                                 flamegraph export
    acr_cli bench [OPTIONS]      time the reference campaign over warmup +
                                 N repetitions; write a BENCH_<name>.json
                                 manifest with median/MAD/min host stats
    acr_cli diff BASE CAND [OPTIONS]
                                 compare two run manifests: byte-exact on
                                 sim hashes and the metrics digest,
                                 tolerance-band on host timings; exit 1 on
                                 any regression
    acr_cli explain BUNDLE.json  render a postmortem bundle as a human-
                                 readable triage report: fault chain,
                                 invariant tallies, escalation ladder,
                                 merged flight-recorder timeline, and the
                                 probable-cause classification
    acr_cli soak [OPTIONS]       run a long-horizon randomized soak: chunked
                                 campaigns round-robin over a workload x
                                 fault-model x resilience grid, every case
                                 classified recovered/due/sdc/hang, bounded
                                 by --cases / --budget-secs and resumable
                                 from a --cursor file
    acr_cli shrink [OPTIONS]     delta-debug one failing fault case down to
                                 a minimal reproducer with the identical
                                 postmortem trigger; writes an acr.repro.v1
                                 JSON replayable with --replay
    acr_cli workloads            list the bundled workloads
    acr_cli help                 show this message

INJECT OPTIONS:
    --seed N          campaign seed (default 42)
    --faults N        total faults, split across the workloads (default 1000)
    --workloads LIST  comma-separated workload names (default is,cg,mg)
    --threads N       cores == threads (default 4)
    --scale F         workload scale factor (default 0.05)
    --checkpoints N   checkpoints per nominal run (default 12)
    --latency F       detection latency / checkpoint period (default 0.5)
    --kinds SET       all | recoverable | adversarial | comma list of
                      reg,pc,mem,burst,stuck,crash (default recoverable)
    --storm G,B       cluster injection points into seeded Poisson bursts:
                      mean gap G instructions between storms, up to B
                      faults per storm (default off — uniform placement)
    --watchdog-budget N
                      recovery-watchdog cycle budget: a single recovery
                      escalation exceeding N cycles is aborted into a
                      `hang` postmortem (default 0 = off)
    --policy P        acr | baseline (default acr)
    --scheme S        global | local (default global)
    --csv DIR         also write per-case CSVs into DIR
    --metrics-out F   write the fault-free baseline's interval metrics
                      samples to F as JSONL
    --sample-interval N
                      metrics sampling interval in cycles (default 5000
                      when --metrics-out is given, else off)
    --recovery-faults additionally strike each case's first recovery with
                      a deterministic recovery-window fault (torn record,
                      flipped restored word, corrupt replay, crash
                      mid-restore, torn commit) and report the engine's
                      escalation histogram (global scheme only)
    --generations N   checkpoint generations retained as rollback
                      fallbacks (default 1; at least 2 with
                      --recovery-faults)
    --jobs N          worker threads sharding the campaign (0 = auto:
                      ACR_JOBS env, else available parallelism; default
                      auto). Output is byte-identical for every value
    --progress        print one line per fault case; lines are buffered
                      per shard and flushed in case order, so the output
                      is also jobs-invariant
    --manifest-out F  write a run manifest (JSON): config, per-workload
                      content hashes + combined, metrics digest, host
                      timings under host.* — the sim section is identical
                      for every --jobs value
    --postmortem-dir D
                      write one postmortem bundle (JSON) per failed case
                      — divergence, invariant breach, escalation
                      exhaustion, or abort — into D as
                      postmortem.<workload>.case<NNNN>.json. Bundles are
                      byte-identical for a given seed and every --jobs
                      value; feed them to `acr_cli explain`
    --print-metrics   print the merged campaign metrics registry as an
                      aligned key/value/unit table after the totals

TRACE OPTIONS:
    --workload W      workload(s) to trace, comma-separated (default cg);
                      with several, each output file gains a .<name>
                      suffix before its extension
    --jobs N          worker threads across workloads (0 = auto: ACR_JOBS
                      env, else available parallelism; default auto)
    --out FILE        Chrome trace_event JSON output (default run.trace.json)
    --metrics-out F   also write the metrics samples to F as JSONL
    --sample-interval N
                      metrics sampling interval in cycles (default 5000)
    --seed N          fault-placement seed (default 42)
    --faults N        recoverable register faults to inject (default 1)
    --threads N       cores == threads (default 2)
    --scale F         workload scale factor (default 0.05)
    --checkpoints N   checkpoints per nominal run (default 12)
    --scheme S        global | local (default global)
    --detail FLAG     on | off — per-store/assoc/miss instants (default off)
    --print-metrics   print the final metrics sample per workload as an
                      aligned key/value/unit table
    --manifest-out F  write a run manifest (JSON): config, per-workload
                      trace-artifact hashes, metrics digest, host timings

PROFILE OPTIONS:
    --workload W      workload(s) to profile, comma-separated (default
                      cg); with several, each output file gains a .<name>
                      suffix before its extension
    --jobs N          worker threads across workloads (0 = auto: ACR_JOBS
                      env, else available parallelism; default auto)
    --seed N          fault-placement seed (default 42)
    --faults N        recoverable register faults to inject (default 1)
    --threads N       cores == threads (default 2)
    --scale F         workload scale factor (default 0.05)
    --checkpoints N   checkpoints per nominal run (default 12)
    --scheme S        global | local (default global)
    --flame-out F     collapsed-stack flamegraph output, loadable in
                      speedscope / inferno (default run.folded)
    --ledger-out F    omission-decision ledger text output
                      (default run.ledger.txt)
    --trace-out F     also write a Chrome trace with the profile and
                      ledger counter tracks appended
    --top N           hottest attribution sites to print (default 10)
    --manifest-out F  write a run manifest (JSON): config, flamegraph and
                      ledger artifact hashes, host timings

BENCH OPTIONS (plus every INJECT option; --faults defaults to 200 — the
reference campaign whose hashes the golden tests pin — and --jobs to 1,
so the timed throughput does not depend on the host's core count):
    --name NAME       benchmark name; output defaults to BENCH_<name>.json
                      (default ref)
    --reps N          timed repetitions (default 5)
    --warmup N        untimed warmup repetitions (default 1)
    --out FILE        output path override

DIFF OPTIONS:
    --tolerance-pct F allowed host-timing growth before the candidate
                      counts as a regression (default 20)
    --host-gate FLAG  on | off | tput — whether host performance fails
                      the diff (default on; CI uses off for hash checks,
                      where shared runners make wall time report-only).
                      `tput` gates on host.tput.cycles_per_sec instead of
                      wall time: a throughput drop beyond the tolerance
                      fails, growth never does. Sim mismatches always
                      fail regardless

SOAK OPTIONS:
    --workloads LIST  comma-separated workload names (default is,cg)
    --cases N         stop once the cursor's total finished cases reach N
                      — counts resumed history, so a budget spans
                      invocations (default 500)
    --budget-secs N   also stop after N seconds of wall clock (checked
                      between chunks; the wall clock can stop a soak but
                      never changes what a chunk computes; default 0 = off)
    --chunk N         cases per chunk (default 25; pinned by the cursor)
    --seed N          soak seed every chunk seed is mixed from (default
                      42; pinned by the cursor)
    --threads N       cores == threads (default 2)
    --scale F         workload scale factor (default 0.05)
    --checkpoints N   checkpoints per nominal run (default 8)
    --latency F       detection latency / checkpoint period (default 0.5)
    --policy P        acr | baseline (default acr)
    --models LIST     fault-model presets to sweep, comma-separated subset
                      of recoverable,classic,adversarial,adversarial-storm,
                      stuck (default all five)
    --resilience LIST resilience presets to sweep, comma-separated subset
                      of baseline,nested,watchdog (default all three)
    --jobs N          worker threads per chunk campaign (0 = auto); chunk
                      results are byte-identical for every value
    --cursor FILE     resume from FILE if it exists, and write the
                      advanced cursor back to it on exit; the cursor pins
                      seed, chunk size and a grid fingerprint, and carries
                      a per-combo hash chain proving a resumed soak
                      continued the exact same stream
    --postmortem-dir D
                      write every non-recovered case's bundle into D as
                      postmortem.<workload>.chunk<NNNN>.case<NNNN>.json
    --print-metrics   print this invocation's soak.* metrics table

SHRINK OPTIONS:
    --workload W      workload to plan the dense failing case on
                      (default cg)
    --seed N          plan seed (default 42)
    --faults N        faults in the dense plan — all injected into ONE
                      case (default 10)
    --kinds SET       fault kinds the plan draws from (default mem)
    --storm G,B       cluster the plan's injection points (default off)
    --threads N       cores == threads (default 2)
    --scale F         workload scale factor (default 0.05)
    --checkpoints N   checkpoints per nominal run (default 4)
    --latency F       detection latency / checkpoint period (default 0.5)
    --policy P        acr | baseline (default acr)
    --recovery-faults strike the case's first recovery with a nested
                      recovery-window fault (global scheme only)
    --generations N   checkpoint generations retained (default 1)
    --watchdog-budget N
                      recovery-watchdog cycle budget (default 0 = off)
    --case N          case index (seeds per-case machinery; default 0)
    --jobs N          worker threads evaluating ddmin candidates (0 =
                      auto); the shrunk plan is identical for every value
    --max-evals N     engine-run evaluation budget (default 2048)
    --out FILE        repro document path (default
                      repro.<workload>.case<NNNN>.json)
    --replay FILE     instead of shrinking, re-run FILE's minimal plan
                      once: exit 1 if it still fails (printing the
                      trigger), 0 if it no longer reproduces

EXIT CODES (uniform across subcommands):
    0   success — the run completed and every gate passed (`explain`
        exits 0 whenever the bundle parses; `shrink --replay` exits 0
        when the repro no longer fails)
    1   gate or divergence failure — `inject` saw diverged or aborted
        cases, `soak` saw silent data corruption, `shrink --replay`
        reproduced its failure, or `diff` found a regression
    2   usage or configuration error — unknown flag or subcommand, bad
        value, unreadable input; the message is a single `error: …`
        line on stderr

Every quantity the campaign reports is derived from the seeded plan and
the deterministic simulator — two invocations with the same options
produce byte-identical output (the content hash makes that checkable,
and `cmp` on two same-seed trace files does too). Manifests keep the two
worlds apart: the sim section is byte-identical across machines and
--jobs values, the host.* section is honest wall-clock and only ever
compared with a tolerance band.
";

struct InjectArgs {
    seed: u64,
    faults: u32,
    workloads: Vec<Benchmark>,
    threads: u32,
    scale: f64,
    checkpoints: u32,
    latency: f64,
    kinds: FaultKindSet,
    storm: Option<FaultStorm>,
    watchdog_budget: u64,
    amnesic: bool,
    scheme: Scheme,
    csv_dir: Option<String>,
    metrics_out: Option<String>,
    sample_interval: u64,
    recovery_faults: bool,
    generations: u32,
    jobs: usize,
    progress: bool,
    manifest_out: Option<String>,
    postmortem_dir: Option<String>,
    print_metrics: bool,
}

impl Default for InjectArgs {
    fn default() -> Self {
        InjectArgs {
            seed: 42,
            faults: 1000,
            workloads: vec![Benchmark::Is, Benchmark::Cg, Benchmark::Mg],
            threads: 4,
            scale: 0.05,
            checkpoints: 12,
            latency: 0.5,
            kinds: FaultKindSet::recoverable(),
            storm: None,
            watchdog_budget: 0,
            amnesic: true,
            scheme: Scheme::GlobalCoordinated,
            csv_dir: None,
            metrics_out: None,
            sample_interval: 0,
            recovery_faults: false,
            generations: 1,
            jobs: 0,
            progress: false,
            manifest_out: None,
            postmortem_dir: None,
            print_metrics: false,
        }
    }
}

fn parse_inject(args: &[String]) -> Result<InjectArgs, String> {
    let mut out = InjectArgs::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        // Valueless flags first — everything else takes a value.
        if flag == "--recovery-faults" {
            out.recovery_faults = true;
            i += 1;
            continue;
        }
        if flag == "--progress" {
            out.progress = true;
            i += 1;
            continue;
        }
        if flag == "--print-metrics" {
            out.print_metrics = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--faults" => {
                out.faults = value.parse().map_err(|e| format!("--faults: {e}"))?;
                if out.faults == 0 {
                    return Err("--faults must be positive".into());
                }
            }
            "--workloads" => {
                out.workloads = value
                    .split(',')
                    .map(|n| {
                        Benchmark::from_name(n.trim())
                            .ok_or_else(|| format!("unknown workload `{n}`"))
                    })
                    .collect::<Result<_, _>>()?;
                if out.workloads.is_empty() {
                    return Err("--workloads must name at least one workload".into());
                }
            }
            "--threads" => {
                out.threads = value.parse().map_err(|e| format!("--threads: {e}"))?;
                if out.threads == 0 {
                    return Err("--threads must be positive".into());
                }
            }
            "--scale" => out.scale = value.parse().map_err(|e| format!("--scale: {e}"))?,
            "--checkpoints" => {
                out.checkpoints = value.parse().map_err(|e| format!("--checkpoints: {e}"))?;
            }
            "--latency" => {
                out.latency = value.parse().map_err(|e| format!("--latency: {e}"))?;
                if !(0.0..=1.0).contains(&out.latency) {
                    return Err("--latency must be within [0, 1]".into());
                }
            }
            "--kinds" => out.kinds = FaultKindSet::parse(value)?,
            "--storm" => {
                out.storm = Some(FaultStorm::parse(value).map_err(|e| format!("--storm: {e}"))?)
            }
            "--watchdog-budget" => {
                out.watchdog_budget = value
                    .parse()
                    .map_err(|e| format!("--watchdog-budget: {e}"))?;
            }
            "--policy" => {
                out.amnesic = match value.as_str() {
                    "acr" => true,
                    "baseline" => false,
                    other => return Err(format!("unknown policy `{other}`")),
                };
            }
            "--scheme" => {
                out.scheme = match value.as_str() {
                    "global" => Scheme::GlobalCoordinated,
                    "local" => Scheme::LocalCoordinated,
                    other => return Err(format!("unknown scheme `{other}`")),
                };
            }
            "--csv" => out.csv_dir = Some(value.clone()),
            "--metrics-out" => out.metrics_out = Some(value.clone()),
            "--sample-interval" => {
                out.sample_interval = value
                    .parse()
                    .map_err(|e| format!("--sample-interval: {e}"))?;
            }
            "--generations" => {
                out.generations = value.parse().map_err(|e| format!("--generations: {e}"))?;
                if out.generations == 0 {
                    return Err("--generations must be positive".into());
                }
            }
            "--jobs" => out.jobs = value.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--manifest-out" => out.manifest_out = Some(value.clone()),
            "--postmortem-dir" => out.postmortem_dir = Some(value.clone()),
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 2;
    }
    if out.metrics_out.is_some() && out.sample_interval == 0 {
        out.sample_interval = 5000;
    }
    Ok(out)
}

/// The sim-relevant configuration of an inject-style campaign as ordered
/// manifest pairs. Execution knobs that must not change results (`--jobs`,
/// `--progress`, output paths) are deliberately excluded so the manifest's
/// gated section stays identical across them.
fn inject_config(a: &InjectArgs) -> Vec<(String, String)> {
    let workloads: Vec<&str> = a.workloads.iter().map(|b| b.name()).collect();
    [
        ("seed", a.seed.to_string()),
        ("faults", a.faults.to_string()),
        ("workloads", workloads.join(",")),
        ("threads", a.threads.to_string()),
        ("scale", a.scale.to_string()),
        ("checkpoints", a.checkpoints.to_string()),
        ("latency", a.latency.to_string()),
        ("kinds", kinds_str(a.kinds)),
        ("storm", storm_str(a.storm)),
        ("watchdog_budget", a.watchdog_budget.to_string()),
        (
            "policy",
            (if a.amnesic { "acr" } else { "baseline" }).to_string(),
        ),
        ("scheme", scheme_str(a.scheme).to_string()),
        ("recovery_faults", a.recovery_faults.to_string()),
        ("generations", a.generations.to_string()),
        ("sample_interval", a.sample_interval.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn scheme_str(s: Scheme) -> &'static str {
    match s {
        Scheme::GlobalCoordinated => "global",
        Scheme::LocalCoordinated => "local",
    }
}

/// The fault-kind set as the comma list `--kinds` accepts.
fn kinds_str(k: FaultKindSet) -> String {
    let mut kinds = Vec::new();
    if k.reg {
        kinds.push("reg");
    }
    if k.pc {
        kinds.push("pc");
    }
    if k.mem {
        kinds.push("mem");
    }
    if k.burst {
        kinds.push("burst");
    }
    if k.stuck {
        kinds.push("stuck");
    }
    if k.crash {
        kinds.push("crash");
    }
    kinds.join(",")
}

/// A storm schedule as the `G,B` spec `--storm` accepts (`off` when
/// placement is uniform).
fn storm_str(s: Option<FaultStorm>) -> String {
    match s {
        Some(s) => format!("{},{}", s.mean_gap, s.max_burst),
        None => "off".to_string(),
    }
}

/// The exact command line that reproduces an inject campaign (and with it
/// every postmortem bundle it writes) — stamped into each bundle so a
/// triage report is self-describing. Execution knobs that cannot change
/// results (`--jobs`, `--progress`, output paths) are omitted.
fn repro_line(a: &InjectArgs) -> String {
    let workloads: Vec<&str> = a.workloads.iter().map(|b| b.name()).collect();
    let mut out = format!(
        "acr_cli inject --seed {} --faults {} --workloads {} --threads {} \
         --scale {} --checkpoints {} --latency {} --kinds {} --policy {} --scheme {}",
        a.seed,
        a.faults,
        workloads.join(","),
        a.threads,
        a.scale,
        a.checkpoints,
        a.latency,
        kinds_str(a.kinds),
        if a.amnesic { "acr" } else { "baseline" },
        scheme_str(a.scheme),
    );
    if let Some(s) = a.storm {
        let _ = write!(out, " --storm {},{}", s.mean_gap, s.max_burst);
    }
    if a.watchdog_budget != 0 {
        let _ = write!(out, " --watchdog-budget {}", a.watchdog_budget);
    }
    if a.recovery_faults {
        out.push_str(" --recovery-faults");
    }
    if a.generations != 1 {
        let _ = write!(out, " --generations {}", a.generations);
    }
    if a.sample_interval != 0 {
        let _ = write!(out, " --sample-interval {}", a.sample_interval);
    }
    out
}

/// The unit column of the metrics pretty-printer, inferred from the key's
/// last dotted segment.
fn metric_unit(key: &str) -> &'static str {
    let mut segs = key.rsplit('.');
    let mut last = segs.next().unwrap_or(key);
    // Histogram digests (`….cycles.p50`) carry their base key's unit;
    // the sample count stays a count.
    if matches!(last, "max" | "min" | "sum" | "p50" | "p90" | "p99") {
        last = segs.next().unwrap_or(last);
    }
    if last.ends_with("cycles") || last == "stall" {
        "cycles"
    } else if last.ends_with("bytes") {
        "bytes"
    } else if last.ends_with("joules") {
        "J"
    } else if last.ends_with("pct") {
        "%"
    } else {
        "count"
    }
}

/// Renders metric key/value pairs as an aligned three-column table
/// (key, value, unit), two-space indented.
fn metrics_table(pairs: &[(String, u64)]) -> String {
    let width = pairs.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (k, v) in pairs {
        let _ = writeln!(out, "  {k:<width$}  {v:>14}  {}", metric_unit(k));
    }
    out
}

/// Builds the per-workload sweep items of an inject-style campaign:
/// `--faults` split evenly across the workloads (remainder to the first
/// ones), per-workload seed = `--seed + index`.
fn campaign_items(a: &InjectArgs) -> Vec<CampaignSweepItem> {
    let n = a.workloads.len() as u32;
    let base_count = a.faults / n;
    let remainder = a.faults % n;
    a.workloads
        .iter()
        .enumerate()
        .filter_map(|(i, &bench)| {
            let count = base_count + u32::from((i as u32) < remainder);
            if count == 0 {
                return None;
            }
            Some(CampaignSweepItem {
                name: bench.name().to_owned(),
                program: generate(
                    bench,
                    &WorkloadConfig::default()
                        .with_threads(a.threads)
                        .with_scale(a.scale),
                ),
                campaign: CampaignConfig {
                    seed: a.seed.wrapping_add(i as u64),
                    count,
                    kinds: a.kinds,
                    storm: a.storm,
                    num_checkpoints: a.checkpoints,
                    detection_latency_frac: a.latency,
                    scheme: a.scheme,
                    sample_interval: a.sample_interval,
                    recovery_faults: a.recovery_faults,
                    generations: a.generations,
                    watchdog_budget_cycles: a.watchdog_budget,
                    progress: a.progress,
                    ..CampaignConfig::default()
                },
                amnesic: a.amnesic,
            })
        })
        .collect()
}

/// The deterministic outcome of one inject-style sweep, accumulated for
/// manifests: per-workload content hashes, the merged metrics digest, and
/// the host-side observability that rides next to them.
struct SweepDigest {
    /// `(workload, content_hash)` in workload order.
    hashes: Vec<(String, u64)>,
    /// Digest of all workloads' metrics registries merged into one.
    digest: u64,
    /// The sweep's workload-level workers' loads.
    loads: Vec<WorkerLoad>,
    /// Simulated cycles executed across all fault cases.
    sim_cycles: u64,
    /// Retired instructions across all cases (each case re-runs the
    /// nominal execution, so this is `total_progress x cases` summed).
    retired: u64,
}

impl SweepDigest {
    fn new(loads: Vec<WorkerLoad>) -> Self {
        SweepDigest {
            hashes: Vec::new(),
            digest: 0,
            loads,
            sim_cycles: 0,
            retired: 0,
        }
    }

    /// Folds one workload outcome in (workload order = call order).
    fn fold(&mut self, name: &str, run: &acr::CampaignRunResult, merged: &mut MetricsRegistry) {
        let r = &run.report;
        self.hashes.push((name.to_owned(), r.content_hash()));
        merged.merge(&r.metrics);
        self.digest = merged.digest();
        self.sim_cycles += r
            .metrics
            .hist("campaign.case.cycles")
            .map_or(0, |h| h.sum());
        self.retired += r.total_progress * r.injected();
    }

    /// The CLI's combined hash: FNV-1a over the little-endian bytes of
    /// each workload's content hash, in workload order.
    fn combined(&self) -> u64 {
        let mut h = Fnv1a::new();
        for (_, hash) in &self.hashes {
            h.write_u64(*hash);
        }
        h.finish()
    }

    /// The manifest's sim-hash list: per-workload hashes plus the
    /// `combined` fold.
    fn sim_hashes(&self) -> Vec<(String, u64)> {
        let mut out = self.hashes.clone();
        out.push(("combined".to_owned(), self.combined()));
        out
    }
}

fn write_manifest(path: &str, m: &Manifest) -> Result<(), String> {
    std::fs::write(path, m.to_json()).map_err(|e| format!("{path}: {e}"))
}

fn inject(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_inject(args)?;
    if let Some(dir) = &a.csv_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("--csv {dir}: {e}"))?;
    }
    if let Some(dir) = &a.postmortem_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("--postmortem-dir {dir}: {e}"))?;
    }

    let mut injected = 0u64;
    let mut detected = 0u64;
    let mut recovered = 0u64;
    let mut diverged = 0u64;
    let mut aborted = 0u64;
    let mut divergent_words = 0u64;
    let mut classes = (0u64, 0u64, 0u64, 0u64);
    let mut recovery_cycles = 0u64;
    let mut recovery_energy = 0.0f64;
    let mut replay_retries = 0u64;
    let mut generation_fallbacks = 0u64;
    let mut degraded_entries = 0u64;
    let mut metrics_jsonl = String::new();
    let mut merged = MetricsRegistry::new();
    let mut host = HostPerf::start();

    // One sweep item per workload; the sweep shards --jobs workers over
    // workloads first and hands any surplus down as per-case campaign
    // shards. Every byte below is identical for every jobs value —
    // except the host.* manifest section, which is honest wall-clock.
    let items = campaign_items(&a);

    let (outcomes, loads) = host.time("sweep", || {
        run_campaign_sweep(&items, a.jobs, |item| {
            let bench = Benchmark::from_name(&item.name).expect("items are built from benchmarks");
            ExperimentSpec::default()
                .with_cores(a.threads)
                .with_threshold(bench.default_threshold())
        })
    });
    let mut digest = SweepDigest::new(loads);

    for o in outcomes {
        let name = o.name;
        let run = o.run.map_err(|e| format!("{name}: {e}"))?;
        let r = &run.report;
        host.add_phase_ns(&name, o.host_ns);
        digest.fold(&name, &run, &mut merged);

        println!("== {} ({}) ==", name, run.label);
        if a.progress {
            print!("{}", r.case_log);
        }
        print!("{}", r.summary());
        println!(
            "  recovery energy {:.6e} J over {:.6e} s",
            run.recovery_energy_joules, run.recovery_seconds
        );
        for c in r
            .cases
            .iter()
            .filter(|c| c.outcome == CaseOutcome::Diverged)
        {
            println!(
                "  case {}: fault landed at cycle {}, recovery stalled {} cycles \
                 ({} words still divergent)",
                c.case,
                c.landing_cycle,
                c.recovery_stall_cycles,
                c.mem_divergence + c.reg_divergence
            );
        }
        if let Some(dir) = &a.postmortem_dir {
            for bundle in &r.postmortems {
                let mut b = bundle.clone();
                b.workload = name.clone();
                b.repro = repro_line(&a);
                let path = format!("{dir}/postmortem.{name}.case{:04}.json", b.case);
                std::fs::write(&path, b.to_json()).map_err(|e| format!("{path}: {e}"))?;
                println!("  postmortem -> {path}");
            }
        }
        if a.metrics_out.is_some() {
            metrics_jsonl.push_str(&r.baseline_series.to_jsonl(&[("workload", &name)]));
        }
        injected += r.injected();
        detected += r.detected();
        recovered += r.recovered();
        diverged += r.diverged();
        aborted += r.aborted();
        let (c_rec, c_due, c_sdc, c_hang) = r.class_counts();
        classes = (
            classes.0 + c_rec,
            classes.1 + c_due,
            classes.2 + c_sdc,
            classes.3 + c_hang,
        );
        divergent_words += r.divergent_words();
        recovery_cycles += r.recovery_stall_cycles();
        recovery_energy += run.recovery_energy_joules;
        replay_retries += r.replay_retries();
        generation_fallbacks += r.generation_fallbacks();
        degraded_entries += r.degraded_entries();

        if let Some(dir) = &a.csv_dir {
            let path = format!("{dir}/{name}.csv");
            std::fs::write(&path, r.csv()).map_err(|e| format!("{path}: {e}"))?;
            println!("  cases written to {path}");
        }
    }

    println!("== campaign total ==");
    println!(
        "  injected {injected}  detected {detected}  recovered {recovered}  \
         diverged {diverged}  aborted {aborted}"
    );
    println!(
        "  outcome classes: recovered {}  due {}  sdc {}  hang {}",
        classes.0, classes.1, classes.2, classes.3
    );
    println!(
        "  state-divergence count {divergent_words}  recovery cycles {recovery_cycles}  \
         recovery energy {recovery_energy:.6e} J"
    );
    if a.recovery_faults {
        println!(
            "  escalation total: replay_retries {replay_retries}  \
             generation_fallbacks {generation_fallbacks}  \
             degraded_entries {degraded_entries}"
        );
    }
    if let Some(path) = &a.metrics_out {
        std::fs::write(path, &metrics_jsonl).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "  baseline metrics written to {path} (every {} cycles)",
            a.sample_interval
        );
    }
    println!("  combined hash {:#018x}", digest.combined());
    if a.print_metrics {
        let pairs: Vec<(String, u64)> = merged.iter().map(|(k, v)| (k.to_owned(), v)).collect();
        println!("  merged metrics ({} keys):", pairs.len());
        print!("{}", metrics_table(&pairs));
    }
    if let Some(path) = &a.manifest_out {
        let wall = host.wall_ns();
        host.record_throughput(digest.sim_cycles, digest.retired, wall);
        host.record_jobs(
            a.jobs as u64,
            ParallelRunner::new(a.jobs).jobs() as u64,
            &digest.loads,
        );
        let m = Manifest {
            command: "inject".to_owned(),
            config: inject_config(&a),
            sim_hashes: digest.sim_hashes(),
            metrics_digest: digest.digest,
            host: host.finish(),
            bench: None,
        };
        write_manifest(path, &m)?;
        println!("  manifest -> {path}");
    }
    Ok(if diverged > 0 || aborted > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

struct SoakArgs {
    workloads: Vec<Benchmark>,
    cases: u64,
    budget_secs: u64,
    chunk: u32,
    seed: u64,
    threads: u32,
    scale: f64,
    checkpoints: u32,
    latency: f64,
    amnesic: bool,
    models: Vec<SoakModel>,
    resilience: Vec<SoakResilience>,
    jobs: usize,
    cursor: Option<String>,
    postmortem_dir: Option<String>,
    print_metrics: bool,
}

impl Default for SoakArgs {
    fn default() -> Self {
        SoakArgs {
            workloads: vec![Benchmark::Is, Benchmark::Cg],
            cases: 500,
            budget_secs: 0,
            chunk: 25,
            seed: 42,
            threads: 2,
            scale: 0.05,
            checkpoints: 8,
            latency: 0.5,
            amnesic: true,
            models: default_models(),
            resilience: default_resilience(),
            jobs: 0,
            cursor: None,
            postmortem_dir: None,
            print_metrics: false,
        }
    }
}

/// Selects presets by label from `all`, preserving the canonical order
/// (the grid fingerprint depends on it, so a reordered `--models` list
/// still resumes the same soak).
fn pick_presets<T: Clone>(
    value: &str,
    flag: &str,
    all: &[T],
    label: impl Fn(&T) -> String,
) -> Result<Vec<T>, String> {
    let wanted: Vec<&str> = value.split(',').map(str::trim).collect();
    for w in &wanted {
        if !all.iter().any(|p| label(p) == *w) {
            let known: Vec<String> = all.iter().map(&label).collect();
            return Err(format!(
                "{flag}: unknown preset `{w}` (known: {})",
                known.join(",")
            ));
        }
    }
    let picked: Vec<T> = all
        .iter()
        .filter(|p| wanted.contains(&label(p).as_str()))
        .cloned()
        .collect();
    if picked.is_empty() {
        return Err(format!("{flag} must name at least one preset"));
    }
    Ok(picked)
}

fn parse_soak(args: &[String]) -> Result<SoakArgs, String> {
    let mut out = SoakArgs::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--print-metrics" {
            out.print_metrics = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workloads" => out.workloads = parse_workloads(value)?,
            "--cases" => {
                out.cases = value.parse().map_err(|e| format!("--cases: {e}"))?;
                if out.cases == 0 {
                    return Err("--cases must be positive".into());
                }
            }
            "--budget-secs" => {
                out.budget_secs = value.parse().map_err(|e| format!("--budget-secs: {e}"))?;
            }
            "--chunk" => {
                out.chunk = value.parse().map_err(|e| format!("--chunk: {e}"))?;
                if out.chunk == 0 {
                    return Err("--chunk must be positive".into());
                }
            }
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--threads" => {
                out.threads = value.parse().map_err(|e| format!("--threads: {e}"))?;
                if out.threads == 0 {
                    return Err("--threads must be positive".into());
                }
            }
            "--scale" => out.scale = value.parse().map_err(|e| format!("--scale: {e}"))?,
            "--checkpoints" => {
                out.checkpoints = value.parse().map_err(|e| format!("--checkpoints: {e}"))?;
            }
            "--latency" => {
                out.latency = value.parse().map_err(|e| format!("--latency: {e}"))?;
                if !(0.0..=1.0).contains(&out.latency) {
                    return Err("--latency must be within [0, 1]".into());
                }
            }
            "--policy" => {
                out.amnesic = match value.as_str() {
                    "acr" => true,
                    "baseline" => false,
                    other => return Err(format!("unknown policy `{other}`")),
                };
            }
            "--models" => {
                out.models =
                    pick_presets(value, "--models", &default_models(), |m| m.label.clone())?;
            }
            "--resilience" => {
                out.resilience = pick_presets(value, "--resilience", &default_resilience(), |r| {
                    r.label.clone()
                })?;
            }
            "--jobs" => out.jobs = value.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--cursor" => out.cursor = Some(value.clone()),
            "--postmortem-dir" => out.postmortem_dir = Some(value.clone()),
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 2;
    }
    Ok(out)
}

/// The exact command line that reproduces a soak stream (stamped into
/// every postmortem the soak writes). Execution knobs that cannot change
/// chunk results (`--jobs`, budgets, output paths) are omitted — the
/// stream is fully determined by seed, chunk size and the grid.
fn soak_repro_line(a: &SoakArgs) -> String {
    let workloads: Vec<&str> = a.workloads.iter().map(|b| b.name()).collect();
    let models: Vec<&str> = a.models.iter().map(|m| m.label.as_str()).collect();
    let presets: Vec<&str> = a.resilience.iter().map(|r| r.label.as_str()).collect();
    format!(
        "acr_cli soak --workloads {} --seed {} --chunk {} --threads {} --scale {} \
         --checkpoints {} --latency {} --policy {} --models {} --resilience {}",
        workloads.join(","),
        a.seed,
        a.chunk,
        a.threads,
        a.scale,
        a.checkpoints,
        a.latency,
        if a.amnesic { "acr" } else { "baseline" },
        models.join(","),
        presets.join(","),
    )
}

/// One cached `Experiment` per soak workload (instrumentation is paid
/// once, not once per chunk).
fn soak_experiments(a: &SoakArgs) -> Result<Vec<(String, Experiment)>, String> {
    a.workloads
        .iter()
        .map(|&bench| {
            let program = generate(
                bench,
                &WorkloadConfig::default()
                    .with_threads(a.threads)
                    .with_scale(a.scale),
            );
            let spec = ExperimentSpec::default()
                .with_cores(a.threads)
                .with_threshold(bench.default_threshold());
            Experiment::new(program, spec)
                .map(|e| (bench.name().to_string(), e))
                .map_err(|e| format!("{}: {e}", bench.name()))
        })
        .collect()
}

fn soak(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_soak(args)?;
    if let Some(dir) = &a.postmortem_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("--postmortem-dir {dir}: {e}"))?;
    }
    let names: Vec<String> = a.workloads.iter().map(|b| b.name().to_string()).collect();
    let grid = SoakGrid::new(&names, &a.models, &a.resilience);
    let cursor = match &a.cursor {
        Some(path) if std::path::Path::new(path).exists() => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let c = SoakCursor::parse(&text, &grid).map_err(|e| format!("--cursor {path}: {e}"))?;
            if c.seed != a.seed {
                return Err(format!(
                    "--cursor {path}: cursor seed {:#x} != --seed {:#x}; a resumed \
                     soak must keep its seed",
                    c.seed, a.seed
                ));
            }
            if c.chunk_cases != a.chunk {
                return Err(format!(
                    "--cursor {path}: cursor chunk size {} != --chunk {}; a resumed \
                     soak must keep its chunk size",
                    c.chunk_cases, a.chunk
                ));
            }
            c
        }
        _ => SoakCursor::new(&grid, a.seed, a.chunk),
    };

    let base = CampaignConfig {
        num_checkpoints: a.checkpoints,
        detection_latency_frac: a.latency,
        jobs: a.jobs,
        ..CampaignConfig::default()
    };
    let mut exps = soak_experiments(&a)?;
    println!(
        "== soak: {} combos x {} cases/chunk, seed {} ==",
        grid.combos.len(),
        a.chunk,
        a.seed
    );
    if cursor.chunks_done > 0 {
        let (done, ..) = cursor.totals();
        println!(
            "  resuming at chunk {} ({done} cases on the books)",
            cursor.chunks_done
        );
    }

    let started = std::time::Instant::now();
    let out = run_soak(
        &grid,
        &base,
        cursor,
        |combo, cfg| {
            let exp = exps
                .iter_mut()
                .find(|(n, _)| *n == combo.workload)
                .map(|(_, e)| e)
                .expect("grid workloads are built from these experiments");
            exp.run_fault_campaign(cfg, a.amnesic)
                .map(|r| r.report)
                .map_err(|e| match e {
                    ExperimentError::Campaign(c) => c,
                    other => CampaignError::Config(CkptError::Unsupported {
                        what: other.to_string(),
                    }),
                })
        },
        |c| {
            let (cases, ..) = c.totals();
            cases < a.cases && (a.budget_secs == 0 || started.elapsed().as_secs() < a.budget_secs)
        },
    )
    .map_err(|e| e.to_string())?;

    print!("{}", out.log);
    println!(
        "== soak matrix ({} chunks total, {} this run) ==",
        out.cursor.chunks_done, out.chunks_run
    );
    print!("{}", out.cursor.matrix());
    if let Some(dir) = &a.postmortem_dir {
        for pm in &out.postmortems {
            let mut b = pm.bundle.clone();
            b.workload = pm.workload.clone();
            b.repro = soak_repro_line(&a);
            let path = format!(
                "{dir}/postmortem.{}.chunk{:04}.case{:04}.json",
                pm.workload, pm.chunk, b.case
            );
            std::fs::write(&path, b.to_json()).map_err(|e| format!("{path}: {e}"))?;
        }
        println!("  {} postmortems -> {dir}", out.postmortems.len());
    }
    if a.print_metrics {
        let pairs: Vec<(String, u64)> =
            out.metrics.iter().map(|(k, v)| (k.to_owned(), v)).collect();
        println!("  soak metrics ({} keys):", pairs.len());
        print!("{}", metrics_table(&pairs));
    }
    if let Some(path) = &a.cursor {
        std::fs::write(path, out.cursor.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("  cursor -> {path}");
    }
    let (_, _, _, sdc, _) = out.cursor.totals();
    if sdc > 0 {
        println!("  SILENT DATA CORRUPTION: {sdc} case(s) — triage the postmortems");
        Ok(ExitCode::from(1))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

struct ShrinkArgs {
    workload: Benchmark,
    seed: u64,
    faults: u32,
    kinds: FaultKindSet,
    storm: Option<FaultStorm>,
    threads: u32,
    scale: f64,
    checkpoints: u32,
    latency: f64,
    amnesic: bool,
    recovery_faults: bool,
    generations: u32,
    watchdog_budget: u64,
    case: usize,
    jobs: usize,
    max_evals: u64,
    out: Option<String>,
    replay: Option<String>,
}

impl Default for ShrinkArgs {
    fn default() -> Self {
        ShrinkArgs {
            workload: Benchmark::Cg,
            seed: 42,
            faults: 10,
            kinds: FaultKindSet {
                reg: false,
                pc: false,
                mem: true,
                burst: false,
                stuck: false,
                crash: false,
            },
            storm: None,
            threads: 2,
            scale: 0.05,
            checkpoints: 4,
            latency: 0.5,
            amnesic: true,
            recovery_faults: false,
            generations: 1,
            watchdog_budget: 0,
            case: 0,
            jobs: 0,
            max_evals: 2048,
            out: None,
            replay: None,
        }
    }
}

fn parse_shrink(args: &[String]) -> Result<ShrinkArgs, String> {
    let mut out = ShrinkArgs::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--recovery-faults" {
            out.recovery_faults = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                out.workload = Benchmark::from_name(value.trim())
                    .ok_or_else(|| format!("unknown workload `{value}`"))?;
            }
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--faults" => {
                out.faults = value.parse().map_err(|e| format!("--faults: {e}"))?;
                if out.faults == 0 {
                    return Err("--faults must be positive".into());
                }
            }
            "--kinds" => out.kinds = FaultKindSet::parse(value)?,
            "--storm" => {
                out.storm = Some(FaultStorm::parse(value).map_err(|e| format!("--storm: {e}"))?)
            }
            "--threads" => {
                out.threads = value.parse().map_err(|e| format!("--threads: {e}"))?;
                if out.threads == 0 {
                    return Err("--threads must be positive".into());
                }
            }
            "--scale" => out.scale = value.parse().map_err(|e| format!("--scale: {e}"))?,
            "--checkpoints" => {
                out.checkpoints = value.parse().map_err(|e| format!("--checkpoints: {e}"))?;
            }
            "--latency" => {
                out.latency = value.parse().map_err(|e| format!("--latency: {e}"))?;
                if !(0.0..=1.0).contains(&out.latency) {
                    return Err("--latency must be within [0, 1]".into());
                }
            }
            "--policy" => {
                out.amnesic = match value.as_str() {
                    "acr" => true,
                    "baseline" => false,
                    other => return Err(format!("unknown policy `{other}`")),
                };
            }
            "--generations" => {
                out.generations = value.parse().map_err(|e| format!("--generations: {e}"))?;
                if out.generations == 0 {
                    return Err("--generations must be positive".into());
                }
            }
            "--watchdog-budget" => {
                out.watchdog_budget = value
                    .parse()
                    .map_err(|e| format!("--watchdog-budget: {e}"))?;
            }
            "--case" => out.case = value.parse().map_err(|e| format!("--case: {e}"))?,
            "--jobs" => out.jobs = value.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--max-evals" => {
                out.max_evals = value.parse().map_err(|e| format!("--max-evals: {e}"))?;
                if out.max_evals == 0 {
                    return Err("--max-evals must be positive".into());
                }
            }
            "--out" => out.out = Some(value.clone()),
            "--replay" => out.replay = Some(value.clone()),
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 2;
    }
    Ok(out)
}

/// One `Experiment` over one workload, as the shrink paths build it.
fn shrink_experiment(bench: Benchmark, threads: u32, scale: f64) -> Result<Experiment, String> {
    let program = generate(
        bench,
        &WorkloadConfig::default()
            .with_threads(threads)
            .with_scale(scale),
    );
    Experiment::new(
        program,
        ExperimentSpec::default()
            .with_cores(threads)
            .with_threshold(bench.default_threshold()),
    )
    .map_err(|e| format!("{}: {e}", bench.name()))
}

/// The `acr.repro.v1` document: everything `--replay` needs to rebuild
/// the exact engine configuration, plus the minimal fault plan. Fractions
/// are serialized as strings (the JSON layer is `f64`-backed and the
/// round-trip must be exact); big `u64`s as hex strings.
fn repro_doc(a: &ShrinkArgs, out: &acr_ckpt::ShrinkOutcome) -> String {
    let mut o = String::from("{\n  \"schema\": ");
    acr_trace::push_json_string(&mut o, REPRO_SCHEMA);
    let _ = write!(o, ",\n  \"workload\": \"{}\"", a.workload.name());
    let _ = write!(o, ",\n  \"case\": {}", a.case);
    let _ = write!(o, ",\n  \"seed\": \"{:#x}\"", a.seed);
    let _ = write!(o, ",\n  \"threads\": {}", a.threads);
    let _ = write!(o, ",\n  \"scale\": \"{}\"", a.scale);
    let _ = write!(o, ",\n  \"checkpoints\": {}", a.checkpoints);
    let _ = write!(o, ",\n  \"latency\": \"{}\"", a.latency);
    let _ = write!(
        o,
        ",\n  \"policy\": \"{}\"",
        if a.amnesic { "acr" } else { "baseline" }
    );
    let _ = write!(o, ",\n  \"recovery_faults\": {}", a.recovery_faults);
    let _ = write!(o, ",\n  \"generations\": {}", a.generations);
    let _ = write!(o, ",\n  \"watchdog_budget\": {}", a.watchdog_budget);
    let _ = write!(o, ",\n  \"trigger\": \"{}\"", out.failure.trigger);
    o.push_str(",\n  \"probable_cause\": ");
    acr_trace::push_json_string(&mut o, &out.failure.bundle.probable_cause);
    let _ = write!(o, ",\n  \"original_faults\": {}", out.original_faults);
    o.push_str(",\n  \"faults\": [");
    for (i, f) in out.minimal.iter().enumerate() {
        o.push_str(if i == 0 { "\n    " } else { ",\n    " });
        o.push_str(&fault_to_json(f));
    }
    o.push_str("\n  ]\n}\n");
    o
}

/// Re-runs a repro document's minimal plan exactly once: exit 1 when the
/// failure reproduces (same-signature triage can proceed), 0 when it no
/// longer fails (the repro is stale).
fn shrink_replay(path: &str) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let schema = jstr(&j, "schema");
    if schema != REPRO_SCHEMA {
        return Err(format!(
            "{path}: unknown repro schema `{schema}` (expected {REPRO_SCHEMA})"
        ));
    }
    let workload = Benchmark::from_name(jstr(&j, "workload"))
        .ok_or_else(|| format!("{path}: unknown workload `{}`", jstr(&j, "workload")))?;
    let frac = |key: &str| -> Result<f64, String> {
        jstr(&j, key)
            .parse()
            .map_err(|e| format!("{path}: field `{key}`: {e}"))
    };
    let seed = u64::from_str_radix(jstr(&j, "seed").trim_start_matches("0x"), 16)
        .map_err(|e| format!("{path}: field `seed`: {e}"))?;
    let faults = j
        .get("faults")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: field `faults` missing"))?
        .iter()
        .map(fault_from_json)
        .collect::<Result<Vec<Fault>, String>>()
        .map_err(|e| format!("{path}: {e}"))?;
    // `jnum` reads absent fields as 0, so a truncated document would
    // otherwise ask for a zero-thread experiment (rejected far less
    // legibly downstream).
    let threads = jnum(&j, "threads") as u32;
    if threads == 0 {
        return Err(format!(
            "{path}: field `threads` missing or zero (a repro document \
             describes at least one thread)"
        ));
    }
    let case = jnum(&j, "case") as usize;
    let cfg = CampaignConfig {
        seed,
        count: faults.len().max(1) as u32,
        num_checkpoints: jnum(&j, "checkpoints") as u32,
        detection_latency_frac: frac("latency")?,
        recovery_faults: jbool(&j, "recovery_faults"),
        generations: (jnum(&j, "generations") as u32).max(1),
        watchdog_budget_cycles: jnum(&j, "watchdog_budget"),
        jobs: 1,
        ..CampaignConfig::default()
    };
    let amnesic = jstr(&j, "policy") == "acr";
    let mut exp = shrink_experiment(workload, threads, frac("scale")?)?;
    println!(
        "== replay: {} case {:04}, {} fault(s) ==",
        workload.name(),
        case,
        faults.len()
    );
    match exp
        .replay_fault_case(&cfg, amnesic, case, &faults)
        .map_err(|e| e.to_string())?
    {
        Some(failure) => {
            println!(
                "  reproduced: trigger {} (recorded {})",
                failure.trigger,
                jstr(&j, "trigger")
            );
            println!("  probable cause: {}", failure.bundle.probable_cause);
            Ok(ExitCode::from(1))
        }
        None => {
            println!("  did not reproduce: the plan no longer fails");
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn shrink(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_shrink(args)?;
    if let Some(path) = &a.replay {
        return shrink_replay(path);
    }
    let cfg = CampaignConfig {
        seed: a.seed,
        count: a.faults,
        kinds: a.kinds,
        storm: a.storm,
        num_checkpoints: a.checkpoints,
        detection_latency_frac: a.latency,
        recovery_faults: a.recovery_faults,
        generations: a.generations,
        watchdog_budget_cycles: a.watchdog_budget,
        jobs: 1,
        ..CampaignConfig::default()
    };
    let mut exp = shrink_experiment(a.workload, a.threads, a.scale)?;
    let faults = exp
        .plan_dense_faults(&cfg, a.amnesic)
        .map_err(|e| e.to_string())?;
    println!(
        "== shrink: {} case {:04}, {} planned fault(s) ==",
        a.workload.name(),
        a.case,
        faults.len()
    );
    let out = exp
        .shrink_fault_case(
            &cfg,
            a.amnesic,
            a.case,
            &faults,
            &ShrinkConfig {
                jobs: a.jobs,
                max_evaluations: a.max_evals,
            },
        )
        .map_err(|e| e.to_string())?;
    println!(
        "  {} fault(s) -> {} ({} dropped, {} field(s) narrowed) in {} round(s), \
         {} evaluation(s)",
        out.original_faults,
        out.minimal.len(),
        out.dropped_faults(),
        out.narrowed_fields,
        out.rounds,
        out.evaluations
    );
    println!("  trigger {}", out.failure.trigger);
    println!("  probable cause: {}", out.failure.bundle.probable_cause);
    println!("  minimal plan:");
    for f in &out.minimal {
        println!("    {}", fault_to_json(f));
    }
    let out_path = a
        .out
        .clone()
        .unwrap_or_else(|| format!("repro.{}.case{:04}.json", a.workload.name(), a.case));
    std::fs::write(&out_path, repro_doc(&a, &out)).map_err(|e| format!("{out_path}: {e}"))?;
    println!("  repro -> {out_path}");
    println!("  replay: acr_cli shrink --replay {out_path}");
    Ok(ExitCode::SUCCESS)
}

struct TraceArgs {
    workloads: Vec<Benchmark>,
    out: String,
    metrics_out: Option<String>,
    sample_interval: u64,
    seed: u64,
    faults: u32,
    threads: u32,
    scale: f64,
    checkpoints: u32,
    scheme: Scheme,
    detail: bool,
    jobs: usize,
    manifest_out: Option<String>,
    print_metrics: bool,
}

impl Default for TraceArgs {
    fn default() -> Self {
        TraceArgs {
            workloads: vec![Benchmark::Cg],
            out: "run.trace.json".to_owned(),
            metrics_out: None,
            sample_interval: 5000,
            seed: 42,
            faults: 1,
            threads: 2,
            scale: 0.05,
            checkpoints: 12,
            scheme: Scheme::GlobalCoordinated,
            detail: false,
            jobs: 0,
            manifest_out: None,
            print_metrics: false,
        }
    }
}

/// Parses a comma-separated, non-empty workload list.
fn parse_workloads(value: &str) -> Result<Vec<Benchmark>, String> {
    let list: Vec<Benchmark> = value
        .split(',')
        .map(|n| Benchmark::from_name(n.trim()).ok_or_else(|| format!("unknown workload `{n}`")))
        .collect::<Result<_, _>>()?;
    if list.is_empty() {
        return Err("--workload must name at least one workload".into());
    }
    Ok(list)
}

fn parse_trace(args: &[String]) -> Result<TraceArgs, String> {
    let mut out = TraceArgs::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--print-metrics" {
            out.print_metrics = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => out.workloads = parse_workloads(value)?,
            "--out" => out.out = value.clone(),
            "--metrics-out" => out.metrics_out = Some(value.clone()),
            "--sample-interval" => {
                out.sample_interval = value
                    .parse()
                    .map_err(|e| format!("--sample-interval: {e}"))?;
                if out.sample_interval == 0 {
                    return Err("--sample-interval must be positive".into());
                }
            }
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--faults" => {
                out.faults = value.parse().map_err(|e| format!("--faults: {e}"))?;
                if out.faults == 0 {
                    return Err("--faults must be positive".into());
                }
            }
            "--threads" => {
                out.threads = value.parse().map_err(|e| format!("--threads: {e}"))?;
                if out.threads == 0 {
                    return Err("--threads must be positive".into());
                }
            }
            "--scale" => out.scale = value.parse().map_err(|e| format!("--scale: {e}"))?,
            "--checkpoints" => {
                out.checkpoints = value.parse().map_err(|e| format!("--checkpoints: {e}"))?;
            }
            "--scheme" => {
                out.scheme = match value.as_str() {
                    "global" => Scheme::GlobalCoordinated,
                    "local" => Scheme::LocalCoordinated,
                    other => return Err(format!("unknown scheme `{other}`")),
                };
            }
            "--detail" => {
                out.detail = match value.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--detail takes on|off, got `{other}`")),
                };
            }
            "--jobs" => out.jobs = value.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--manifest-out" => out.manifest_out = Some(value.clone()),
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 2;
    }
    Ok(out)
}

/// The sim-relevant configuration of a trace/profile run as ordered
/// manifest pairs (`--jobs` and output paths excluded; see
/// [`inject_config`]).
fn faulted_config(
    workloads: &[Benchmark],
    seed: u64,
    faults: u32,
    threads: u32,
    scale: f64,
    checkpoints: u32,
    scheme: Scheme,
) -> Vec<(String, String)> {
    let names: Vec<&str> = workloads.iter().map(|b| b.name()).collect();
    [
        ("seed", seed.to_string()),
        ("faults", faults.to_string()),
        ("workloads", names.join(",")),
        ("threads", threads.to_string()),
        ("scale", scale.to_string()),
        ("checkpoints", checkpoints.to_string()),
        ("scheme", scheme_str(scheme).to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Inserts `.{name}` before the final extension (`run.trace.json` →
/// `run.trace.cg.json`; extensionless paths get `.{name}` appended) —
/// how multi-workload trace/profile runs keep one output file per
/// workload.
fn suffixed(path: &str, name: &str) -> String {
    match path.rfind('.') {
        Some(i) if i > 0 && !path[i..].contains('/') => {
            format!("{}.{name}{}", &path[..i], &path[i..])
        }
        _ => format!("{path}.{name}"),
    }
}

/// Places `count` guaranteed-recoverable register faults deterministically
/// along the progress axis: evenly spaced, cores round-robin, register and
/// bit derived from the seed. No RNG — the same seed always yields the
/// same trace bytes.
fn planned_faults(seed: u64, count: u32, total: u64, threads: u32) -> Vec<Fault> {
    (0..u64::from(count))
        .map(|i| Fault {
            at_progress: total * (i + 1) / (u64::from(count) + 1),
            core: CoreId((i % u64::from(threads)) as u32),
            kind: FaultKind::RegBitFlip {
                reg: (4 + (seed.wrapping_add(i)) % 24) as u8,
                bit: ((seed.wrapping_mul(7).wrapping_add(i * 13)) % 64) as u8,
            },
        })
        .collect()
}

fn trace(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_trace(args)?;
    let multi = a.workloads.len() > 1;
    let mut host = HostPerf::start();
    let mut sim_hashes: Vec<(String, u64)> = Vec::new();
    let mut metrics_digest = Fnv1a::new();
    let mut sim_cycles = 0u64;
    let mut retired = 0u64;
    let items: Vec<FaultedSweepItem> = a
        .workloads
        .iter()
        .map(|&bench| FaultedSweepItem {
            name: bench.name().to_owned(),
            program: generate(
                bench,
                &WorkloadConfig::default()
                    .with_threads(a.threads)
                    .with_scale(a.scale),
            ),
        })
        .collect();
    let outcomes = host.time("sweep", || {
        run_faulted_sweep(
            &items,
            a.jobs,
            Some(a.detail),
            |item| {
                let bench =
                    Benchmark::from_name(&item.name).expect("items are built from benchmarks");
                ExperimentSpec::default()
                    .with_cores(a.threads)
                    .with_checkpoints(a.checkpoints)
                    .with_threshold(bench.default_threshold())
                    .with_scheme(a.scheme)
                    .with_sample_interval(a.sample_interval)
            },
            |_, total| planned_faults(a.seed, a.faults, total, a.threads),
        )
    });

    for o in outcomes {
        let name = o.name;
        let run = o.run.map_err(|e| format!("{name}: {e}"))?;
        let result = &run.result;
        let report = result.report.as_ref().expect("engine runs carry a report");
        host.add_phase_ns(&name, o.host_ns);
        sim_cycles += result.cycles;
        retired += result.sim.retired;

        let out_path = if multi {
            suffixed(&a.out, &name)
        } else {
            a.out.clone()
        };
        let json = chrome_trace_json(&run.events, Some(&report.series));
        std::fs::write(&out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;
        sim_hashes.push((name.clone(), fnv1a(json.as_bytes())));

        println!(
            "traced {} ({}): {} cycles, {} checkpoints, {} faults injected, {} recoveries",
            name,
            result.label,
            result.cycles,
            report.checkpoints_taken,
            report.faults_injected,
            report.recoveries.len(),
        );
        for (i, rec) in report.recoveries.iter().enumerate() {
            let landed = report.fault_landing_cycles.get(i).copied().unwrap_or(0);
            println!(
                "  recovery {i}: fault landed at cycle {landed}, detected at cycle {}, \
                 stalled {} cycles ({} values recomputed by Slice replay)",
                rec.detected_at_cycles, rec.stall_cycles, rec.recomputed_values
            );
        }
        println!(
            "  {} trace events + {} metric samples (every {} cycles) -> {}",
            run.events.len(),
            report.series.samples().len(),
            a.sample_interval,
            out_path
        );
        if a.print_metrics {
            if let Some(sample) = report.series.samples().last() {
                println!("  final metrics sample (cycle {}):", sample.cycle);
                print!("{}", metrics_table(&sample.values));
            }
        }
        let jsonl = report
            .series
            .to_jsonl(&[("workload", &name), ("run", "reckpt_faulted")]);
        metrics_digest.write(jsonl.as_bytes());
        if let Some(path) = &a.metrics_out {
            let path = if multi {
                suffixed(path, &name)
            } else {
                path.clone()
            };
            std::fs::write(&path, jsonl).map_err(|e| format!("{path}: {e}"))?;
            println!("  metrics samples -> {path}");
        }
    }
    if let Some(path) = &a.manifest_out {
        let wall = host.wall_ns();
        host.record_throughput(sim_cycles, retired, wall);
        host.record_jobs(
            a.jobs as u64,
            ParallelRunner::new(a.jobs).jobs() as u64,
            &[],
        );
        let mut config = faulted_config(
            &a.workloads,
            a.seed,
            a.faults,
            a.threads,
            a.scale,
            a.checkpoints,
            a.scheme,
        );
        config.push(("sample_interval".to_owned(), a.sample_interval.to_string()));
        config.push(("detail".to_owned(), a.detail.to_string()));
        let m = Manifest {
            command: "trace".to_owned(),
            config,
            sim_hashes,
            metrics_digest: metrics_digest.finish(),
            host: host.finish(),
            bench: None,
        };
        write_manifest(path, &m)?;
        println!("manifest -> {path}");
    }
    Ok(ExitCode::SUCCESS)
}

struct ProfileArgs {
    workloads: Vec<Benchmark>,
    seed: u64,
    faults: u32,
    threads: u32,
    scale: f64,
    checkpoints: u32,
    scheme: Scheme,
    flame_out: String,
    ledger_out: String,
    trace_out: Option<String>,
    top: usize,
    jobs: usize,
    manifest_out: Option<String>,
}

impl Default for ProfileArgs {
    fn default() -> Self {
        ProfileArgs {
            workloads: vec![Benchmark::Cg],
            seed: 42,
            faults: 1,
            threads: 2,
            scale: 0.05,
            checkpoints: 12,
            scheme: Scheme::GlobalCoordinated,
            flame_out: "run.folded".to_owned(),
            ledger_out: "run.ledger.txt".to_owned(),
            trace_out: None,
            top: 10,
            jobs: 0,
            manifest_out: None,
        }
    }
}

fn parse_profile(args: &[String]) -> Result<ProfileArgs, String> {
    let mut out = ProfileArgs::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => out.workloads = parse_workloads(value)?,
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--faults" => {
                out.faults = value.parse().map_err(|e| format!("--faults: {e}"))?;
                if out.faults == 0 {
                    return Err("--faults must be positive".into());
                }
            }
            "--threads" => {
                out.threads = value.parse().map_err(|e| format!("--threads: {e}"))?;
                if out.threads == 0 {
                    return Err("--threads must be positive".into());
                }
            }
            "--scale" => out.scale = value.parse().map_err(|e| format!("--scale: {e}"))?,
            "--checkpoints" => {
                out.checkpoints = value.parse().map_err(|e| format!("--checkpoints: {e}"))?;
            }
            "--scheme" => {
                out.scheme = match value.as_str() {
                    "global" => Scheme::GlobalCoordinated,
                    "local" => Scheme::LocalCoordinated,
                    other => return Err(format!("unknown scheme `{other}`")),
                };
            }
            "--flame-out" => out.flame_out = value.clone(),
            "--ledger-out" => out.ledger_out = value.clone(),
            "--trace-out" => out.trace_out = Some(value.clone()),
            "--top" => out.top = value.parse().map_err(|e| format!("--top: {e}"))?,
            "--jobs" => out.jobs = value.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--manifest-out" => out.manifest_out = Some(value.clone()),
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 2;
    }
    Ok(out)
}

/// Sanitizes a region label for the collapsed-stack format (frames are
/// `;`-separated, samples end at the first space).
fn flame_frame(label: &str) -> String {
    label.replace([';', ' '], "_")
}

/// Renders the per-PC profile as collapsed stacks:
/// `workload;tN;region;class;pc_0x… ticks`, one line per attribution
/// site, in `(core, pc)` order — loadable in speedscope or inferno.
fn collapsed_stacks(
    workload: &str,
    program: &acr_isa::Program,
    prof: &acr_sim::PcProfile,
) -> String {
    let mut out = String::new();
    for ((core, pc), c) in prof.iter() {
        if c.ticks == 0 {
            continue;
        }
        let region = flame_frame(program.label_at(*core, *pc).unwrap_or("code"));
        let class = if c.mem_ticks > 0 { "mem" } else { "cpu" };
        let _ = writeln!(
            out,
            "{workload};t{core};{region};{class};pc_0x{pc:x} {}",
            c.ticks
        );
    }
    out
}

/// Renders the omission-decision ledger as a deterministic text report:
/// reason totals, the per-4-KiB-range split, per-Slice omission counts and
/// per-Slice replay cost (cycles plus pJ from the energy model).
fn ledger_report(
    workload: &str,
    seed: u64,
    ledger: &acr_ckpt::DecisionLedger,
    energy: &acr_energy::EnergyModel,
) -> String {
    let mut out = String::new();
    let total = ledger.total_decisions();
    let _ = writeln!(out, "# omission-decision ledger: {workload} seed {seed}");
    let _ = writeln!(
        out,
        "decisions {total}  logged {}  omitted {}",
        ledger.total_logged(),
        ledger.total_omitted()
    );
    for reason in OmitReason::ALL {
        let n = ledger.total(reason);
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * n as f64 / total as f64
        };
        let _ = writeln!(out, "  {:<24} {n:>10}  {pct:>5.1}%", reason.code());
    }
    let _ = writeln!(
        out,
        "# per 4 KiB range: base {}",
        OmitReason::ALL.map(OmitReason::code).join(" ")
    );
    for (base, counts) in ledger.ranges() {
        let _ = write!(out, "range {base:#012x}");
        for n in counts {
            let _ = write!(out, " {n}");
        }
        out.push('\n');
    }
    let _ = writeln!(out, "# per-slice omissions");
    for (slice, n) in ledger.per_slice() {
        let _ = writeln!(out, "slice {} omitted {n}", slice.0);
    }
    let _ = writeln!(out, "# per-slice replay cost");
    for (slice, rc) in ledger.replays() {
        let pj = rc.alu_ops as f64 * energy.alu_pj + rc.opbuf_reads as f64 * energy.opbuf_pj;
        let _ = writeln!(
            out,
            "slice {} replays {} cycles {} alu {} opbuf {} energy_pj {pj:.1}",
            slice.0, rc.replays, rc.cycles, rc.alu_ops, rc.opbuf_reads
        );
    }
    out
}

fn profile(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_profile(args)?;
    let multi = a.workloads.len() > 1;
    let items: Vec<FaultedSweepItem> = a
        .workloads
        .iter()
        .map(|&bench| FaultedSweepItem {
            name: bench.name().to_owned(),
            program: generate(
                bench,
                &WorkloadConfig::default()
                    .with_threads(a.threads)
                    .with_scale(a.scale),
            ),
        })
        .collect();
    let tracing = a.trace_out.is_some();
    let mut host = HostPerf::start();
    let mut sim_hashes: Vec<(String, u64)> = Vec::new();
    let mut metrics_digest = Fnv1a::new();
    let mut sim_cycles = 0u64;
    let mut retired = 0u64;
    let outcomes = host.time("sweep", || {
        run_faulted_sweep(
            &items,
            a.jobs,
            tracing.then_some(false),
            |item| {
                let bench =
                    Benchmark::from_name(&item.name).expect("items are built from benchmarks");
                let spec = ExperimentSpec::default()
                    .with_cores(a.threads)
                    .with_checkpoints(a.checkpoints)
                    .with_threshold(bench.default_threshold())
                    .with_scheme(a.scheme)
                    .with_profile(true);
                if tracing {
                    spec.with_sample_interval(5000)
                } else {
                    spec
                }
            },
            |_, total| planned_faults(a.seed, a.faults, total, a.threads),
        )
    });

    let energy = acr_energy::EnergyModel::default();
    for o in outcomes {
        let name = o.name;
        let run = o.run.map_err(|e| format!("{name}: {e}"))?;
        let result = &run.result;
        let iprog = &run.instrumented;
        let prof = result.profile.as_ref().expect("profiling was enabled");
        let ledger = result.ledger.as_ref().expect("profiling was enabled");
        let (logged, omitted) = result.log_totals.expect("profiling was enabled");

        // Conservation: the ledger classified every first-update decision,
        // and its logged/omitted split matches the log controller's word
        // totals. A violation is an attribution bug, not a user error.
        assert_eq!(
            ledger.total_decisions(),
            logged + omitted,
            "ledger decisions must equal words logged + omitted"
        );
        assert_eq!(ledger.total_omitted(), omitted);

        let flame_out = if multi {
            suffixed(&a.flame_out, &name)
        } else {
            a.flame_out.clone()
        };
        let ledger_out = if multi {
            suffixed(&a.ledger_out, &name)
        } else {
            a.ledger_out.clone()
        };
        let flame = collapsed_stacks(&name, iprog, prof);
        std::fs::write(&flame_out, &flame).map_err(|e| format!("{flame_out}: {e}"))?;
        let ledger_txt = ledger_report(&name, a.seed, ledger, &energy);
        std::fs::write(&ledger_out, &ledger_txt).map_err(|e| format!("{ledger_out}: {e}"))?;
        host.add_phase_ns(&name, o.host_ns);
        sim_cycles += result.cycles;
        retired += result.sim.retired;
        sim_hashes.push((format!("{name}.flame"), fnv1a(flame.as_bytes())));
        sim_hashes.push((format!("{name}.ledger"), fnv1a(ledger_txt.as_bytes())));
        metrics_digest.write(flame.as_bytes());
        metrics_digest.write(ledger_txt.as_bytes());

        println!(
            "profiled {} ({}): {} cycles, {} attribution sites, {} retires",
            name,
            result.label,
            result.cycles,
            prof.len(),
            prof.total_retires(),
        );
        let (p50, p90, p99) = prof.tick_histogram().digest();
        println!("  retire ticks p50 {p50} p90 {p90} p99 {p99}");
        println!(
            "  decisions {}: {} omitted, {} logged",
            ledger.total_decisions(),
            omitted,
            logged
        );

        // Hottest sites by attributed ticks (ties broken by site order).
        let mut sites: Vec<_> = prof.iter().collect();
        sites.sort_by(|a, b| b.1.ticks.cmp(&a.1.ticks).then(a.0.cmp(b.0)));
        println!(
            "  {:<5} {:<10} {:<16} {:>9} {:>9} {:>8} {:>8}",
            "core", "pc", "region", "retires", "ticks", "mem", "stall"
        );
        for ((core, pc), c) in sites.into_iter().take(a.top) {
            println!(
                "  {core:<5} {:<10} {:<16} {:>9} {:>9} {:>8} {:>8}",
                format!("0x{pc:x}"),
                iprog.label_at(*core, *pc).unwrap_or("code"),
                c.retires,
                c.ticks,
                c.mem_ticks,
                c.stall_ticks
            );
        }
        println!("  flamegraph -> {flame_out}");
        println!("  ledger -> {ledger_out}");

        if let Some(path) = &a.trace_out {
            let path = if multi {
                suffixed(path, &name)
            } else {
                path.clone()
            };
            let report = result.report.as_ref().expect("engine runs carry a report");
            let mut recorded = run.events.clone();
            // Ledger reason totals as one counter track per reason, stamped
            // at the end of the run, plus the retire-latency digest.
            for reason in OmitReason::ALL {
                recorded.push(
                    TraceEvent::counter(reason.code(), "ledger", TRACK_ENGINE, result.cycles)
                        .with_arg("words", ledger.total(reason)),
                );
            }
            recorded.push(
                TraceEvent::counter(
                    "profile.retire.ticks",
                    "profile",
                    TRACK_ENGINE,
                    result.cycles,
                )
                .with_arg("p50", p50)
                .with_arg("p90", p90)
                .with_arg("p99", p99),
            );
            let json = chrome_trace_json(&recorded, Some(&report.series));
            std::fs::write(&path, &json).map_err(|e| format!("{path}: {e}"))?;
            println!("  trace -> {path}");
        }
    }
    if let Some(path) = &a.manifest_out {
        let wall = host.wall_ns();
        host.record_throughput(sim_cycles, retired, wall);
        host.record_jobs(
            a.jobs as u64,
            ParallelRunner::new(a.jobs).jobs() as u64,
            &[],
        );
        let m = Manifest {
            command: "profile".to_owned(),
            config: faulted_config(
                &a.workloads,
                a.seed,
                a.faults,
                a.threads,
                a.scale,
                a.checkpoints,
                a.scheme,
            ),
            sim_hashes,
            metrics_digest: metrics_digest.finish(),
            host: host.finish(),
            bench: None,
        };
        write_manifest(path, &m)?;
        println!("manifest -> {path}");
    }
    Ok(ExitCode::SUCCESS)
}

struct BenchArgs {
    /// The campaign to time — every inject option applies, with
    /// `--faults` defaulting to 200 (the reference campaign whose
    /// hashes the golden tests pin) instead of 1000, and `--jobs` to 1
    /// instead of auto.
    inject: InjectArgs,
    name: String,
    reps: u32,
    warmup: u32,
    out: Option<String>,
}

fn parse_bench(args: &[String]) -> Result<BenchArgs, String> {
    let mut name = "ref".to_owned();
    let mut reps = 5u32;
    let mut warmup = 1u32;
    let mut out = None;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--name" | "--reps" | "--warmup" | "--out" => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                match flag {
                    "--name" => name = value.clone(),
                    "--reps" => {
                        reps = value.parse().map_err(|e| format!("--reps: {e}"))?;
                        if reps == 0 {
                            return Err("--reps must be positive".into());
                        }
                    }
                    "--warmup" => warmup = value.parse().map_err(|e| format!("--warmup: {e}"))?,
                    _ => out = Some(value.clone()),
                }
                i += 2;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    let had_faults = rest.iter().any(|s| s == "--faults");
    let had_jobs = rest.iter().any(|s| s == "--jobs");
    let mut inject = parse_inject(&rest)?;
    if !had_faults {
        inject.faults = 200;
    }
    if !had_jobs {
        inject.jobs = 1;
    }
    Ok(BenchArgs {
        inject,
        name,
        reps,
        warmup,
        out,
    })
}

fn bench(args: &[String]) -> Result<ExitCode, String> {
    let b = parse_bench(args)?;
    let a = &b.inject;
    let items = campaign_items(a);
    let spec_for = |item: &CampaignSweepItem| {
        let bench = Benchmark::from_name(&item.name).expect("items are built from benchmarks");
        ExperimentSpec::default()
            .with_cores(a.threads)
            .with_threshold(bench.default_threshold())
    };
    let run_items = |items: &[CampaignSweepItem]| -> Result<SweepDigest, String> {
        let (outcomes, loads) = run_campaign_sweep(items, a.jobs, spec_for);
        let mut digest = SweepDigest::new(loads);
        let mut merged = MetricsRegistry::new();
        for o in outcomes {
            let name = o.name;
            let run = o.run.map_err(|e| format!("{name}: {e}"))?;
            digest.fold(&name, &run, &mut merged);
        }
        Ok(digest)
    };
    let run_once = || run_items(&items);

    let mut host = HostPerf::start();
    println!(
        "benchmark {}: faults {} workloads {} jobs {} — {} warmup + {} timed reps",
        b.name,
        a.faults,
        a.workloads
            .iter()
            .map(|w| w.name())
            .collect::<Vec<_>>()
            .join(","),
        a.jobs,
        b.warmup,
        b.reps
    );
    for _ in 0..b.warmup {
        host.time("warmup", run_once)?;
    }

    let mut samples = Vec::with_capacity(b.reps as usize);
    let mut loads: Vec<WorkerLoad> = Vec::new();
    let mut reference: Option<SweepDigest> = None;
    for rep in 0..b.reps {
        let sw = Stopwatch::start();
        let digest = run_once()?;
        let ns = sw.elapsed_ns();
        host.add_phase_ns("reps", ns);
        samples.push(ns);
        println!(
            "  rep {}/{}: {:.3} s  combined {:#018x}",
            rep + 1,
            b.reps,
            ns as f64 / 1e9,
            digest.combined()
        );
        merge_loads(&mut loads, &digest.loads);
        match &reference {
            // The timed campaign must be deterministic or the numbers
            // mean nothing: every rep re-proves the sim section.
            Some(r) if r.hashes != digest.hashes || r.digest != digest.digest => {
                return Err(
                    "nondeterministic campaign: sim hashes differ across repetitions".into(),
                );
            }
            Some(_) => {}
            None => reference = Some(digest),
        }
    }
    let reference = reference.expect("--reps is positive");
    let stats = BenchStats::from_samples(&samples, u64::from(b.warmup));
    println!(
        "  median {:.3} s  mad {:.3} s  min {:.3} s",
        stats.median_ns as f64 / 1e9,
        stats.mad_ns as f64 / 1e9,
        stats.min_ns as f64 / 1e9
    );

    // Recorder-overhead phase: the flight recorder rides along on every
    // fault case by default, so re-time the identical campaign with the
    // rings detached. The recorder is purely observational — the hashes
    // must not move — and the median split quantifies its host cost
    // (budgeted under 1 % on the reference campaign).
    let mut off_items = items.clone();
    for it in &mut off_items {
        it.campaign.recorder = false;
    }
    let mut off_samples = Vec::with_capacity(b.reps as usize);
    for _ in 0..b.reps {
        let sw = Stopwatch::start();
        let digest = run_items(&off_items)?;
        let ns = sw.elapsed_ns();
        host.add_phase_ns("recorder_off", ns);
        off_samples.push(ns);
        if digest.hashes != reference.hashes || digest.digest != reference.digest {
            return Err(
                "flight recorder perturbed the campaign: recorder-off sim hashes differ".into(),
            );
        }
    }
    let off = BenchStats::from_samples(&off_samples, 0);
    let overhead_pct = if off.median_ns == 0 {
        0.0
    } else {
        100.0 * (stats.median_ns as f64 - off.median_ns as f64) / off.median_ns as f64
    };
    println!(
        "  recorder overhead {overhead_pct:+.2}% (median {:.3} s on vs {:.3} s off; \
         hashes identical)",
        stats.median_ns as f64 / 1e9,
        off.median_ns as f64 / 1e9
    );

    // Throughput is per *repetition* (median), not per total wall time,
    // so it is comparable across different --reps choices.
    host.record_throughput(reference.sim_cycles, reference.retired, stats.median_ns);
    host.record_jobs(
        a.jobs as u64,
        ParallelRunner::new(a.jobs).jobs() as u64,
        &loads,
    );
    let m = Manifest {
        command: "bench".to_owned(),
        config: inject_config(a),
        sim_hashes: reference.sim_hashes(),
        metrics_digest: reference.digest,
        host: host.finish(),
        bench: Some(stats),
    };
    let out_path = b.out.unwrap_or_else(|| format!("BENCH_{}.json", b.name));
    write_manifest(&out_path, &m)?;
    println!("manifest -> {out_path}");
    if let Some(path) = &a.manifest_out {
        write_manifest(path, &m)?;
        println!("manifest -> {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn diff(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = DiffOptions::default();
    let mut paths: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--tolerance-pct" => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                opts.tolerance_pct = value.parse().map_err(|e| format!("--tolerance-pct: {e}"))?;
                if opts.tolerance_pct.is_nan() || opts.tolerance_pct < 0.0 {
                    return Err("--tolerance-pct must be non-negative".into());
                }
                i += 2;
            }
            "--host-gate" => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                (opts.gate_host, opts.gate_tput) = match value.as_str() {
                    "on" => (true, false),
                    "off" => (false, false),
                    // Perf-gate mode: wall time stays report-only (noisy
                    // on shared runners), but a drop in simulated cycles
                    // per host second beyond the tolerance fails.
                    "tput" => (false, true),
                    other => return Err(format!("--host-gate takes on|off|tput, got `{other}`")),
                };
                i += 2;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`"));
            }
            _ => {
                paths.push(args[i].clone());
                i += 1;
            }
        }
    }
    if paths.len() != 2 {
        return Err(format!(
            "diff takes exactly two manifest paths, got {}",
            paths.len()
        ));
    }
    let read = |path: &str| -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Manifest::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = read(&paths[0])?;
    let candidate = read(&paths[1])?;
    let report = diff_manifests(&baseline, &candidate, &opts);
    print!("{}", report.render());
    Ok(if report.failed() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Object member as a string (`"?"` for absent or mistyped keys — the
/// renderer degrades instead of erroring on a hand-edited bundle).
fn jstr<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or("?")
}

/// Object member as an unsigned integer (0 when absent).
fn jnum(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Object member as a bool (false when absent).
fn jbool(j: &Json, key: &str) -> bool {
    matches!(j.get(key), Some(Json::Bool(true)))
}

/// Merged flight-recorder timeline lines. Within-ring order is already
/// chronological, so the stable sort by `(cycle, track)` interleaves the
/// rings without reordering equal-cycle events of one core.
fn explain_timeline(rings: &[Json]) -> (Vec<String>, u64) {
    let mut dropped = 0u64;
    let mut events: Vec<(u64, u64, String)> = Vec::new();
    for ring in rings {
        dropped += jnum(ring, "dropped");
        for ev in ring
            .get("events")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            let (cycle, track) = (jnum(ev, "cycle"), jnum(ev, "track"));
            let mut line = format!(
                "[{cycle:>10}] t{track:<4} {} ({}/{})",
                jstr(ev, "name"),
                jstr(ev, "cat"),
                jstr(ev, "kind"),
            );
            if jnum(ev, "dur") > 0 {
                let _ = write!(line, " dur {}", jnum(ev, "dur"));
            }
            if let Some(Json::Obj(args)) = ev.get("args") {
                for (k, v) in args {
                    let _ = write!(line, " {k}={}", v.as_u64().unwrap_or(0));
                }
            }
            events.push((cycle, track, line));
        }
    }
    events.sort_by_key(|e| (e.0, e.1));
    (events.into_iter().map(|(_, _, l)| l).collect(), dropped)
}

/// Renders a postmortem bundle as a human-readable triage report: header,
/// fault chain, machine digest, invariant tallies, escalation ladder, log
/// tail, the merged flight-recorder timeline, and the probable-cause
/// classification. Exits 0 whenever the bundle parses.
fn explain(args: &[String]) -> Result<ExitCode, String> {
    let path = match args {
        [p] if !p.starts_with("--") => p.as_str(),
        _ => return Err("explain takes exactly one postmortem bundle path".into()),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let schema = jstr(&j, "schema");
    if schema != POSTMORTEM_SCHEMA {
        return Err(format!(
            "{path}: unknown bundle schema `{schema}` (expected {POSTMORTEM_SCHEMA})"
        ));
    }

    let workload = jstr(&j, "workload");
    println!(
        "== postmortem: {} case {} — {} ==",
        if workload.is_empty() { "?" } else { workload },
        jnum(&j, "case"),
        jstr(&j, "trigger")
    );
    println!(
        "  seed {}  outcome {}",
        jnum(&j, "seed"),
        jstr(&j, "outcome")
    );
    if let Some(f) = j.get("fault") {
        println!(
            "  fault: {} ({}) on core {}, planned at progress {}, landed at cycle {}",
            jstr(f, "kind"),
            jstr(f, "detail"),
            jnum(f, "core"),
            jnum(f, "at_progress"),
            jnum(f, "landing_cycle")
        );
    }
    match j.get("recovery_fault") {
        Some(Json::Str(s)) => println!("  recovery fault: {s}"),
        _ => println!("  recovery fault: none"),
    }
    if let Some(m) = j.get("machine") {
        println!(
            "  machine: {} cycles, {} retired, mem fnv {}",
            jnum(m, "cycles"),
            jnum(m, "final_retired"),
            jstr(m, "mem_fnv")
        );
        println!(
            "  divergence: {} mem, {} reg, {} shadow words",
            jnum(m, "mem_divergence"),
            jnum(m, "reg_divergence"),
            jnum(m, "shadow_divergence")
        );
    }
    if let Some(l) = j.get("log") {
        println!(
            "  log: {} words logged, {} omitted over the case lifetime",
            jnum(l, "lifetime_logged"),
            jnum(l, "lifetime_omitted")
        );
        let tail = l
            .get("intervals_tail")
            .and_then(Json::as_arr)
            .unwrap_or_default();
        if !tail.is_empty() {
            println!(
                "  interval tail (last {}, {} earlier dropped):",
                tail.len(),
                jnum(l, "intervals_dropped")
            );
            for iv in tail {
                println!(
                    "    epoch {:>4}: progress {} records {} omitted {} bytes {} stall {}",
                    jnum(iv, "epoch"),
                    jnum(iv, "progress"),
                    jnum(iv, "records"),
                    jnum(iv, "omitted"),
                    jnum(iv, "bytes"),
                    jnum(iv, "stall_cycles")
                );
            }
        }
    }
    if let Some(inv) = j.get("invariants") {
        println!("  invariants: {} breaches", jnum(inv, "breaches"));
        if let Some(Json::Obj(monitors)) = inv.get("monitors") {
            for (name, m) in monitors {
                println!(
                    "    {name:<24} {} checks, {} breaches",
                    jnum(m, "checks"),
                    jnum(m, "breaches")
                );
            }
        }
        if let Some(fb) = inv.get("first_breach") {
            if !matches!(fb, Json::Null) {
                println!(
                    "    first breach: {} at epoch {} cycle {}: {}",
                    jstr(fb, "monitor"),
                    jnum(fb, "epoch"),
                    jnum(fb, "cycle"),
                    jstr(fb, "detail")
                );
            }
        }
    }
    if let Some(esc) = j.get("escalation") {
        let steps = esc.get("steps").and_then(Json::as_arr).unwrap_or_default();
        println!(
            "  escalation: {} recoveries, {} ladder exhaustions",
            steps.len(),
            jnum(esc, "exhausted")
        );
        for s in steps {
            println!(
                "    detected at cycle {}: safe epoch {}, {} re-replays, \
                 {} generation fallbacks, degraded {}",
                jnum(s, "detected_at_cycles"),
                jnum(s, "safe_epoch"),
                jnum(s, "replay_retries"),
                jnum(s, "generation_fallbacks"),
                jbool(s, "degraded_entered")
            );
        }
    }
    let rings = j.get("rings").and_then(Json::as_arr).unwrap_or_default();
    if rings.is_empty() {
        println!("  timeline: no flight-recorder rings captured");
    } else {
        const SHOW: usize = 80;
        let (lines, dropped) = explain_timeline(rings);
        let skip = lines.len().saturating_sub(SHOW);
        let suffix = if skip > 0 {
            format!(", showing last {SHOW}")
        } else {
            String::new()
        };
        println!(
            "  timeline: {} events retained across {} rings \
             ({dropped} older events dropped){suffix}",
            lines.len(),
            rings.len()
        );
        for line in lines.iter().skip(skip) {
            println!("    {line}");
        }
    }
    println!("  probable cause: {}", jstr(&j, "probable_cause"));
    let repro = jstr(&j, "repro");
    if !repro.is_empty() && repro != "?" {
        println!("  repro: {repro}");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // One dispatcher, one error path: every subcommand returns
    // `Result<ExitCode, String>`; any `Err` prints a single `error: …`
    // line on stderr and exits 2 (usage/config), while gate failures
    // (inject divergence/abort, diff regression) exit 1 via `Ok`.
    let result = match args.first().map(String::as_str) {
        Some("inject") => inject(&args[1..]),
        Some("trace") => trace(&args[1..]),
        Some("profile") => profile(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("diff") => diff(&args[1..]),
        Some("explain") => explain(&args[1..]),
        Some("soak") => soak(&args[1..]),
        Some("shrink") => shrink(&args[1..]),
        Some("workloads") => {
            for b in Benchmark::ALL {
                println!("{}", b.name());
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("help" | "-h" | "--help") | None => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown subcommand `{other}` (try `acr_cli help`)")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

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
//! ledger text report — byte-identical for a given seed. The
//! `experiment` subcommand runs one workload's `No_Ckpt`, `Ckpt` and
//! `ReCkpt` configurations under any of the paper's knobs.
//!
//! Host-performance observability rides alongside: `inject`/`trace`/
//! `profile` emit a machine-readable run manifest behind `--manifest-out`
//! (sim-deterministic hashes + host timings), `bench` times the reference
//! campaign over warmup + N repetitions into `BENCH_<name>.json`, and
//! `diff` compares two manifests — byte-exact on the sim section,
//! tolerance-band on host timings — exiting nonzero on a regression.
//!
//! Every flag of every subcommand is one row of [`FLAGS`], and every knob
//! one field of [`CliArgs`]. A subcommand ([`SUBCOMMANDS`]) is its own
//! defaults plus the names of the flags it accepts; one parse loop and
//! one usage generator serve them all.

use std::fmt::{Display, Write as _};
use std::process::ExitCode;
use std::str::FromStr;

use acr::{
    placement, run_campaign_sweep, run_faulted_sweep, AddrMapConfig, CampaignSweepItem, Experiment,
    ExperimentError, ExperimentSpec, FaultedSweepItem, RunResult,
};
use acr_ckpt::{
    default_models, default_resilience, fault_from_json, fault_to_json, fault_value, run_soak,
    CampaignConfig, CampaignError, CaseOutcome, CkptError, OmitReason, ParallelRunner, Scheme,
    SecondaryStorage, ShrinkConfig, ShrinkOutcome, SoakCursor, SoakGrid, SoakModel, SoakResilience,
    POSTMORTEM_SCHEMA, REPRO_SCHEMA,
};
use acr_isa::Program;
use acr_mem::{CoreId, MAX_CORES};
use acr_sim::{Fault, FaultKind, FaultKindSet, FaultStorm};
use acr_trace::{
    chrome_trace_json, diff_manifests, fnv1a, merge_loads, parse_json, BenchStats, DiffOptions,
    Fnv1a, HostPerf, Json, JsonStyle, Manifest, MetricsRegistry, Stopwatch, TraceEvent, WorkerLoad,
    TRACK_ENGINE,
};
use acr_workloads::{generate, Benchmark, WorkloadConfig};

/// `println!` through [`write_stdout`]: every stdout line of this program
/// is written with it.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// The one stdout writer. When the reader goes away (`acr_cli … | head
/// -1`), writes fail with `BrokenPipe`; those are dropped, so the command
/// still runs to its end and exits with its own status instead of
/// panicking. Any other write error panics, as `println!` does.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        assert!(
            e.kind() == std::io::ErrorKind::BrokenPipe,
            "failed printing to stdout: {e}"
        );
    }
}

/// Every knob of every subcommand, held once. Each subcommand starts from
/// its own defaults ([`Subcommand::defaults`]); the base values below are
/// `inject`'s.
#[derive(Debug, Clone, PartialEq)]
struct CliArgs {
    // Workload, machine and fault plan.
    /// Campaign, fault-placement or plan seed; the workload-generator seed
    /// in `experiment`.
    seed: u64,
    faults: u32,
    workloads: Vec<Benchmark>,
    /// Cores == threads.
    threads: u32,
    scale: f64,
    checkpoints: u32,
    latency: f64,
    kinds: FaultKindSet,
    storm: Option<FaultStorm>,
    watchdog_budget: u64,
    /// `--policy acr` (ACR's amnesic policy) or `baseline` (log everything).
    amnesic: bool,
    scheme: Scheme,
    recovery_faults: bool,
    generations: u32,
    sample_interval: u64,
    // Execution and reporting.
    jobs: usize,
    progress: bool,
    print_metrics: bool,
    // Output files.
    csv_dir: Option<String>,
    metrics_out: Option<String>,
    manifest_out: Option<String>,
    postmortem_dir: Option<String>,
    /// The trace (`trace`), manifest (`bench`) or repro document (`shrink`).
    out: Option<String>,
    // trace and profile.
    detail: bool,
    flame_out: String,
    ledger_out: String,
    trace_out: Option<String>,
    top: usize,
    // bench.
    name: String,
    reps: u32,
    warmup: u32,
    // diff.
    diff: DiffOptions,
    // soak.
    cases: u64,
    budget_secs: u64,
    chunk: u32,
    models: Vec<SoakModel>,
    resilience: Vec<SoakResilience>,
    cursor: Option<String>,
    // shrink.
    case: usize,
    max_evals: u64,
    replay: Option<String>,
    // experiment.
    errors: u32,
    threshold: Option<usize>,
    addrmap: Option<usize>,
    secondary: Option<u32>,
    adaptive: bool,
    oracle: bool,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
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
            recovery_faults: false,
            generations: 1,
            sample_interval: 0,
            jobs: 0,
            progress: false,
            print_metrics: false,
            csv_dir: None,
            metrics_out: None,
            manifest_out: None,
            postmortem_dir: None,
            out: None,
            detail: false,
            flame_out: "run.folded".to_owned(),
            ledger_out: "run.ledger.txt".to_owned(),
            trace_out: None,
            top: 10,
            name: "ref".to_owned(),
            reps: 5,
            warmup: 1,
            diff: DiffOptions::default(),
            cases: 500,
            budget_secs: 0,
            chunk: 25,
            models: default_models(),
            resilience: default_resilience(),
            cursor: None,
            case: 0,
            max_evals: 2048,
            replay: None,
            errors: 0,
            threshold: None,
            addrmap: None,
            secondary: None,
            adaptive: false,
            oracle: false,
        }
    }
}

impl CliArgs {
    /// `bench`'s program at the configured threads and scale.
    fn program(&self, bench: Benchmark) -> Program {
        generate(
            bench,
            &WorkloadConfig::default()
                .with_threads(self.threads)
                .with_scale(self.scale),
        )
    }

    /// The experiment spec every subcommand starts from: one core per
    /// thread and `bench`'s default Slice threshold.
    fn spec(&self, bench: Benchmark) -> ExperimentSpec {
        ExperimentSpec::default()
            .with_cores(self.threads)
            .with_threshold(bench.default_threshold())
    }

    /// An [`Experiment`] over [`Self::program`] under [`Self::spec`].
    fn experiment(&self, bench: Benchmark) -> Result<Experiment, String> {
        Experiment::new(self.program(bench), self.spec(bench))
            .map_err(|e| format!("{}: {e}", bench.name()))
    }

    /// The campaign the fault-plan knobs describe (one job: `inject`
    /// shards through the sweep, `shrink` through [`ShrinkConfig`]).
    fn campaign(&self) -> CampaignConfig {
        CampaignConfig {
            seed: self.seed,
            count: self.faults,
            kinds: self.kinds,
            storm: self.storm,
            num_checkpoints: self.checkpoints,
            detection_latency_frac: self.latency,
            scheme: self.scheme,
            sample_interval: self.sample_interval,
            recovery_faults: self.recovery_faults,
            generations: self.generations,
            watchdog_budget_cycles: self.watchdog_budget,
            progress: self.progress,
            ..CampaignConfig::default()
        }
    }

    /// The single workload of `shrink` and `experiment`.
    fn workload(&self) -> Result<Benchmark, String> {
        match self.workloads[..] {
            [bench] => Ok(bench),
            _ => Err("--workload takes exactly one workload here".into()),
        }
    }

    /// The `--policy` value.
    fn policy(&self) -> &'static str {
        if self.amnesic {
            "acr"
        } else {
            "baseline"
        }
    }

    /// `inject` and `bench`: `--metrics-out` without `--sample-interval`
    /// samples every 5000 cycles.
    fn with_sampling_default(mut self) -> Self {
        if self.metrics_out.is_some() && self.sample_interval == 0 {
            self.sample_interval = 5000;
        }
        self
    }
}

/// One row of the flag table.
struct Flag {
    name: &'static str,
    /// Value placeholder for the usage text; `None` for a switch.
    arg: Option<&'static str>,
    /// One usage line; the subcommand's default is appended to it.
    help: &'static str,
    /// Applies the flag's value (`""` for a switch).
    set: fn(&mut CliArgs, &str) -> Result<(), String>,
    /// The value as the flag accepts it (`""` for a switch that is on);
    /// `None` when unset.
    show: fn(&CliArgs) -> Option<String>,
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    // Workload, machine and fault plan.
    Flag { name: "--workload", arg: Some("W"), help: "workload(s), comma-separated",
        set: |a, v| workloads(v).map(|w| a.workloads = w), show: |a| Some(names(&a.workloads)) },
    Flag { name: "--workloads", arg: Some("LIST"), help: "comma-separated workload names",
        set: |a, v| workloads(v).map(|w| a.workloads = w), show: |a| Some(names(&a.workloads)) },
    Flag { name: "--threads", arg: Some("N"), help: "cores == threads, 1 to 64",
        set: |a, v| threads(v).map(|n| a.threads = n), show: |a| Some(a.threads.to_string()) },
    Flag { name: "--scale", arg: Some("F"), help: "workload scale factor, > 0",
        set: |a, v| scale(v).map(|f| a.scale = f), show: |a| Some(a.scale.to_string()) },
    Flag { name: "--seed", arg: Some("N"), help: "seed (experiment: the workload generator's)",
        set: |a, v| parse(v).map(|n| a.seed = n), show: |a| Some(a.seed.to_string()) },
    Flag { name: "--faults", arg: Some("N"), help: "faults to inject",
        set: |a, v| positive(v).map(|n| a.faults = n), show: |a| Some(a.faults.to_string()) },
    Flag { name: "--kinds", arg: Some("SET"), help: "all | recoverable | adversarial | reg,pc,mem,burst,stuck,crash",
        set: |a, v| FaultKindSet::parse(v).map(|k| a.kinds = k), show: |a| Some(kinds_str(a.kinds)) },
    Flag { name: "--storm", arg: Some("G,B"), help: "Poisson fault storms: mean gap G, up to B faults (default off)",
        set: |a, v| FaultStorm::parse(v).map(|s| a.storm = Some(s)), show: |a| a.storm.map(|s| format!("{},{}", s.mean_gap, s.max_burst)) },
    Flag { name: "--checkpoints", arg: Some("N"), help: "checkpoints per nominal run",
        set: |a, v| parse(v).map(|n| a.checkpoints = n), show: |a| Some(a.checkpoints.to_string()) },
    Flag { name: "--latency", arg: Some("F"), help: "detection latency / checkpoint period, in [0, 1]",
        set: |a, v| latency(v).map(|f| a.latency = f), show: |a| Some(a.latency.to_string()) },
    Flag { name: "--watchdog-budget", arg: Some("N"), help: "abort recoveries past N cycles as `hang` (0 = off)",
        set: |a, v| parse(v).map(|n| a.watchdog_budget = n), show: |a| Some(a.watchdog_budget.to_string()) },
    Flag { name: "--policy", arg: Some("P"), help: "acr | baseline",
        set: |a, v| policy(v).map(|p| a.amnesic = p), show: |a| Some(a.policy().to_owned()) },
    Flag { name: "--scheme", arg: Some("S"), help: "global | local",
        set: |a, v| scheme(v).map(|s| a.scheme = s), show: |a| Some(scheme_str(a.scheme).to_owned()) },
    Flag { name: "--recovery-faults", arg: None, help: "also fault each case's first recovery (global only)",
        set: |a, _| { a.recovery_faults = true; Ok(()) }, show: |a| a.recovery_faults.then(String::new) },
    Flag { name: "--generations", arg: Some("N"), help: "checkpoint generations kept as rollback fallbacks",
        set: |a, v| positive(v).map(|n| a.generations = n), show: |a| Some(a.generations.to_string()) },
    Flag { name: "--sample-interval", arg: Some("N"), help: "metrics sampling interval in cycles (0 = off)",
        set: |a, v| parse(v).map(|n| a.sample_interval = n), show: |a| Some(a.sample_interval.to_string()) },
    // Execution and reporting.
    Flag { name: "--jobs", arg: Some("N"), help: "worker threads (0 = auto); output is jobs-invariant",
        set: |a, v| parse(v).map(|n| a.jobs = n), show: |a| Some(a.jobs.to_string()) },
    Flag { name: "--progress", arg: None, help: "print one line per fault case",
        set: |a, _| { a.progress = true; Ok(()) }, show: |a| a.progress.then(String::new) },
    Flag { name: "--print-metrics", arg: None, help: "print the metrics as a key/value/unit table",
        set: |a, _| { a.print_metrics = true; Ok(()) }, show: |a| a.print_metrics.then(String::new) },
    // Output files.
    Flag { name: "--csv", arg: Some("DIR"), help: "also write per-case CSVs into DIR",
        set: |a, v| parse(v).map(|p| a.csv_dir = Some(p)), show: |a| a.csv_dir.clone() },
    Flag { name: "--metrics-out", arg: Some("F"), help: "write interval metrics samples to F as JSONL",
        set: |a, v| parse(v).map(|p| a.metrics_out = Some(p)), show: |a| a.metrics_out.clone() },
    Flag { name: "--manifest-out", arg: Some("F"), help: "write a run manifest (JSON) to F",
        set: |a, v| parse(v).map(|p| a.manifest_out = Some(p)), show: |a| a.manifest_out.clone() },
    Flag { name: "--postmortem-dir", arg: Some("D"), help: "write a postmortem bundle per failed case into D",
        set: |a, v| parse(v).map(|p| a.postmortem_dir = Some(p)), show: |a| a.postmortem_dir.clone() },
    Flag { name: "--out", arg: Some("FILE"), help: "output file",
        set: |a, v| parse(v).map(|p| a.out = Some(p)), show: |a| a.out.clone() },
    // trace and profile.
    Flag { name: "--detail", arg: Some("FLAG"), help: "on | off: per-store/assoc/miss trace instants",
        set: |a, v| on_off(v).map(|d| a.detail = d), show: |a| Some((if a.detail { "on" } else { "off" }).to_owned()) },
    Flag { name: "--flame-out", arg: Some("F"), help: "collapsed-stack flamegraph output",
        set: |a, v| parse(v).map(|p| a.flame_out = p), show: |a| Some(a.flame_out.clone()) },
    Flag { name: "--ledger-out", arg: Some("F"), help: "omission-decision ledger text output",
        set: |a, v| parse(v).map(|p| a.ledger_out = p), show: |a| Some(a.ledger_out.clone()) },
    Flag { name: "--trace-out", arg: Some("F"), help: "also write a Chrome trace with profile counters",
        set: |a, v| parse(v).map(|p| a.trace_out = Some(p)), show: |a| a.trace_out.clone() },
    Flag { name: "--top", arg: Some("N"), help: "hottest attribution sites to print",
        set: |a, v| parse(v).map(|n| a.top = n), show: |a| Some(a.top.to_string()) },
    // bench.
    Flag { name: "--name", arg: Some("NAME"), help: "benchmark name",
        set: |a, v| parse(v).map(|s| a.name = s), show: |a| Some(a.name.clone()) },
    Flag { name: "--reps", arg: Some("N"), help: "timed repetitions",
        set: |a, v| positive(v).map(|n| a.reps = n), show: |a| Some(a.reps.to_string()) },
    Flag { name: "--warmup", arg: Some("N"), help: "untimed warmup repetitions",
        set: |a, v| parse(v).map(|n| a.warmup = n), show: |a| Some(a.warmup.to_string()) },
    // diff.
    Flag { name: "--tolerance-pct", arg: Some("F"), help: "allowed host-timing growth in percent",
        set: |a, v| tolerance(v).map(|t| a.diff.tolerance_pct = t), show: |a| Some(a.diff.tolerance_pct.to_string()) },
    Flag { name: "--host-gate", arg: Some("FLAG"), help: "on | off | tput: gate wall time, nothing or throughput",
        set: |a, v| host_gate(v).map(|g| (a.diff.gate_host, a.diff.gate_tput) = g), show: |a| Some(host_gate_str(a.diff).to_owned()) },
    // soak.
    Flag { name: "--cases", arg: Some("N"), help: "stop at N finished cases, resumed ones included",
        set: |a, v| positive(v).map(|n| a.cases = n), show: |a| Some(a.cases.to_string()) },
    Flag { name: "--budget-secs", arg: Some("N"), help: "also stop after N wall-clock seconds (0 = off)",
        set: |a, v| parse(v).map(|n| a.budget_secs = n), show: |a| Some(a.budget_secs.to_string()) },
    Flag { name: "--chunk", arg: Some("N"), help: "cases per chunk (pinned by the cursor)",
        set: |a, v| positive(v).map(|n| a.chunk = n), show: |a| Some(a.chunk.to_string()) },
    Flag { name: "--models", arg: Some("LIST"), help: "fault-model presets to sweep",
        set: |a, v| pick_presets(v, &default_models(), |m| &m.label).map(|m| a.models = m), show: |a| Some(labels(&a.models, |m| &m.label)) },
    Flag { name: "--resilience", arg: Some("LIST"), help: "resilience presets to sweep",
        set: |a, v| pick_presets(v, &default_resilience(), |r| &r.label).map(|r| a.resilience = r), show: |a| Some(labels(&a.resilience, |r| &r.label)) },
    Flag { name: "--cursor", arg: Some("FILE"), help: "resume from, and save, the soak cursor in FILE",
        set: |a, v| parse(v).map(|p| a.cursor = Some(p)), show: |a| a.cursor.clone() },
    // shrink.
    Flag { name: "--case", arg: Some("N"), help: "case index (seeds per-case machinery)",
        set: |a, v| parse(v).map(|n| a.case = n), show: |a| Some(a.case.to_string()) },
    Flag { name: "--max-evals", arg: Some("N"), help: "engine-run evaluation budget",
        set: |a, v| positive(v).map(|n| a.max_evals = n), show: |a| Some(a.max_evals.to_string()) },
    Flag { name: "--replay", arg: Some("FILE"), help: "re-run FILE's minimal plan once; exit 1 if it fails",
        set: |a, v| parse(v).map(|p| a.replay = Some(p)), show: |a| a.replay.clone() },
    // experiment.
    Flag { name: "--errors", arg: Some("N"), help: "errors injected into the checkpointed runs",
        set: |a, v| parse(v).map(|n| a.errors = n), show: |a| Some(a.errors.to_string()) },
    Flag { name: "--threshold", arg: Some("N"), help: "Slice length threshold (default per workload)",
        set: |a, v| parse(v).map(|n| a.threshold = Some(n)), show: |a| a.threshold.map(|n| n.to_string()) },
    Flag { name: "--addrmap", arg: Some("N"), help: "AddrMap capacity per core (default 16384)",
        set: |a, v| parse(v).map(|n| a.addrmap = Some(n)), show: |a| a.addrmap.map(|n| n.to_string()) },
    Flag { name: "--secondary", arg: Some("K"), help: "level-2 checkpoint every K-th checkpoint",
        set: |a, v| parse(v).map(|n| a.secondary = Some(n)), show: |a| a.secondary.map(|n| n.to_string()) },
    Flag { name: "--adaptive", arg: None, help: "recomputation-aware placement (with --policy acr)",
        set: |a, _| { a.adaptive = true; Ok(()) }, show: |a| a.adaptive.then(String::new) },
    Flag { name: "--oracle", arg: None, help: "verify recoveries against shadow copies",
        set: |a, _| { a.oracle = true; Ok(()) }, show: |a| a.oracle.then(String::new) },
];

/// The flag-table row named `name`.
fn flag(name: &str) -> &'static Flag {
    FLAGS
        .iter()
        .find(|f| f.name == name)
        .expect("subcommands only name flags of the table")
}

/// A flag value parsed with its type's `FromStr`.
fn parse<T: FromStr>(v: &str) -> Result<T, String>
where
    T::Err: Display,
{
    v.parse().map_err(|e: T::Err| e.to_string())
}

/// A count that must be positive.
fn positive<T: FromStr + Default + PartialEq>(v: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let n = parse(v)?;
    if n == T::default() {
        return Err("must be positive".into());
    }
    Ok(n)
}

/// A thread count the machine's one-bit-per-core masks can hold. Checked
/// before any workload is generated.
fn threads(v: &str) -> Result<u32, String> {
    let n = parse(v)?;
    if !(1..=MAX_CORES).contains(&n) {
        return Err(format!("must be within 1..={MAX_CORES}"));
    }
    Ok(n)
}

fn scale(v: &str) -> Result<f64, String> {
    let f: f64 = parse(v)?;
    if !(f.is_finite() && f > 0.0) {
        return Err("must be finite and positive".into());
    }
    Ok(f)
}

fn latency(v: &str) -> Result<f64, String> {
    let f = parse(v)?;
    if !(0.0..=1.0).contains(&f) {
        return Err("must be within [0, 1]".into());
    }
    Ok(f)
}

fn tolerance(v: &str) -> Result<f64, String> {
    let f: f64 = parse(v)?;
    if f.is_nan() || f < 0.0 {
        return Err("must be non-negative".into());
    }
    Ok(f)
}

/// `true` for `--policy acr`, `false` for `baseline`.
fn policy(v: &str) -> Result<bool, String> {
    match v {
        "acr" => Ok(true),
        "baseline" => Ok(false),
        other => Err(format!("unknown policy `{other}`")),
    }
}

fn scheme(v: &str) -> Result<Scheme, String> {
    match v {
        "global" => Ok(Scheme::GlobalCoordinated),
        "local" => Ok(Scheme::LocalCoordinated),
        other => Err(format!("unknown scheme `{other}`")),
    }
}

fn scheme_str(s: Scheme) -> &'static str {
    match s {
        Scheme::GlobalCoordinated => "global",
        Scheme::LocalCoordinated => "local",
    }
}

fn on_off(v: &str) -> Result<bool, String> {
    match v {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!("takes on|off, got `{other}`")),
    }
}

/// `(gate_host, gate_tput)` of a `--host-gate` value. In `tput` mode wall
/// time stays report-only (noisy on shared runners), but a drop in
/// simulated cycles per host second beyond the tolerance fails.
fn host_gate(v: &str) -> Result<(bool, bool), String> {
    match v {
        "on" => Ok((true, false)),
        "off" => Ok((false, false)),
        "tput" => Ok((false, true)),
        other => Err(format!("takes on|off|tput, got `{other}`")),
    }
}

fn host_gate_str(d: DiffOptions) -> &'static str {
    match (d.gate_host, d.gate_tput) {
        (true, _) => "on",
        (false, true) => "tput",
        (false, false) => "off",
    }
}

/// A comma-separated workload list.
fn workloads(v: &str) -> Result<Vec<Benchmark>, String> {
    v.split(',')
        .map(|n| Benchmark::from_name(n.trim()).ok_or_else(|| format!("unknown workload `{n}`")))
        .collect()
}

fn names(list: &[Benchmark]) -> String {
    let names: Vec<&str> = list.iter().map(|b| b.name()).collect();
    names.join(",")
}

/// Selects presets by label from `all`, preserving the canonical order
/// (the grid fingerprint depends on it, so a reordered `--models` list
/// still resumes the same soak).
fn pick_presets<T: Clone>(
    v: &str,
    all: &[T],
    label: impl Fn(&T) -> &String,
) -> Result<Vec<T>, String> {
    let wanted: Vec<&str> = v.split(',').map(str::trim).collect();
    if let Some(w) = wanted.iter().find(|w| !all.iter().any(|p| label(p) == *w)) {
        return Err(format!(
            "unknown preset `{w}` (known: {})",
            labels(all, label)
        ));
    }
    Ok(all
        .iter()
        .filter(|p| wanted.contains(&label(p).as_str()))
        .cloned()
        .collect())
}

fn labels<T>(presets: &[T], label: impl Fn(&T) -> &String) -> String {
    let labels: Vec<&str> = presets.iter().map(|p| label(p).as_str()).collect();
    labels.join(",")
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

/// One subcommand: its defaults and the flags it accepts.
struct Subcommand {
    name: &'static str,
    /// Positional operands for the usage line; empty when it takes none.
    operands: &'static str,
    /// Usage summary, one `\n`-separated line per row.
    about: &'static str,
    defaults: fn() -> CliArgs,
    /// Accepted flags, in usage order, as groups of table names.
    flags: &'static [&'static [&'static str]],
    run: fn(CliArgs, &[String]) -> Result<ExitCode, String>,
}

#[rustfmt::skip]
const INJECT_FLAGS: &[&str] = &[
    "--seed", "--faults", "--workloads", "--threads", "--scale", "--checkpoints", "--latency", "--kinds",
    "--storm", "--watchdog-budget", "--policy", "--scheme", "--csv", "--metrics-out", "--sample-interval",
    "--recovery-faults", "--generations", "--jobs", "--progress", "--manifest-out", "--postmortem-dir",
    "--print-metrics",
];

#[rustfmt::skip]
const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand { name: "inject", operands: "", about: "run a deterministic fault-injection campaign",
        defaults: CliArgs::default, flags: &[INJECT_FLAGS], run: |a, _| inject(a) },
    Subcommand { name: "trace", operands: "", about: "trace one ACR run under injected faults",
        defaults: || CliArgs { workloads: vec![Benchmark::Cg], threads: 2, faults: 1, sample_interval: 5000,
                               out: Some("run.trace.json".to_owned()), ..CliArgs::default() },
        flags: &[&["--workload", "--jobs", "--out", "--metrics-out", "--sample-interval", "--seed", "--faults",
                   "--threads", "--scale", "--checkpoints", "--scheme", "--detail", "--print-metrics", "--manifest-out"]],
        run: |a, _| trace(a) },
    Subcommand { name: "profile", operands: "",
        about: "attribution-profile one ACR run: per-PC cycle\naccounting, omission-decision ledger,\nflamegraph export",
        defaults: || CliArgs { workloads: vec![Benchmark::Cg], threads: 2, faults: 1, ..CliArgs::default() },
        flags: &[&["--workload", "--jobs", "--seed", "--faults", "--threads", "--scale", "--checkpoints", "--scheme",
                   "--flame-out", "--ledger-out", "--trace-out", "--top", "--manifest-out"]],
        run: |a, _| profile(a) },
    Subcommand { name: "bench", operands: "",
        about: "time the reference campaign (inject's flags;\n200 faults, 1 job) over warmup + N repetitions;\nwrite a BENCH_<name>.json manifest",
        defaults: || CliArgs { faults: 200, jobs: 1, ..CliArgs::default() },
        flags: &[INJECT_FLAGS, &["--name", "--reps", "--warmup", "--out"]], run: |a, _| bench(a) },
    Subcommand { name: "diff", operands: "BASE CAND",
        about: "compare two run manifests: byte-exact on sim\nhashes and the metrics digest, tolerance-band\non host timings; exit 1 on any regression",
        defaults: CliArgs::default, flags: &[&["--tolerance-pct", "--host-gate"]], run: diff },
    Subcommand { name: "explain", operands: "BUNDLE.json",
        about: "render a postmortem bundle as a triage report:\nfault chain, invariants, escalation ladder,\nflight-recorder timeline, probable cause",
        defaults: CliArgs::default, flags: &[], run: |_, operands| explain(operands) },
    Subcommand { name: "soak", operands: "",
        about: "run a resumable randomized soak: chunked\ncampaigns over a workload x fault-model x\nresilience grid, cases classified\nrecovered/due/sdc/hang",
        defaults: || CliArgs { workloads: vec![Benchmark::Is, Benchmark::Cg], threads: 2, checkpoints: 8, ..CliArgs::default() },
        flags: &[&["--workloads", "--cases", "--budget-secs", "--chunk", "--seed", "--threads", "--scale", "--checkpoints",
                   "--latency", "--policy", "--models", "--resilience", "--jobs", "--cursor", "--postmortem-dir",
                   "--print-metrics"]],
        run: |a, _| soak(a) },
    Subcommand { name: "shrink", operands: "",
        about: "delta-debug one failing fault case down to a\nminimal reproducer with the same postmortem\ntrigger; writes an acr.repro.v1 JSON",
        defaults: || CliArgs {
            workloads: vec![Benchmark::Cg], threads: 2, faults: 10, checkpoints: 4,
            kinds: FaultKindSet { reg: false, pc: false, mem: true, burst: false, stuck: false, crash: false },
            ..CliArgs::default()
        },
        flags: &[&["--workload", "--seed", "--faults", "--kinds", "--storm", "--threads", "--scale", "--checkpoints",
                   "--latency", "--policy", "--recovery-faults", "--generations", "--watchdog-budget", "--case", "--jobs",
                   "--max-evals", "--out", "--replay"]],
        run: |a, _| shrink(a) },
    Subcommand { name: "experiment", operands: "",
        about: "run one workload's No_Ckpt baseline and its\ncheckpointed configurations under the paper's\nknobs",
        defaults: || CliArgs {
            workloads: vec![Benchmark::Bt], threads: 8, scale: 1.0, seed: WorkloadConfig::default().seed,
            checkpoints: 25, ..CliArgs::default()
        },
        flags: &[&["--workload", "--threads", "--scale", "--seed", "--checkpoints", "--errors", "--threshold", "--scheme",
                   "--latency", "--addrmap", "--secondary", "--adaptive", "--oracle", "--policy"]],
        run: |a, _| experiment(a) },
    Subcommand { name: "workloads", operands: "", about: "list the bundled workloads",
        defaults: CliArgs::default, flags: &[], run: |_, _| workloads_list() },
    Subcommand { name: "help", operands: "", about: "show this message",
        defaults: CliArgs::default, flags: &[], run: |_, _| { out!("{}", usage()); Ok(ExitCode::SUCCESS) } },
];

impl Subcommand {
    fn named(name: &str) -> Option<&'static Subcommand> {
        SUBCOMMANDS.iter().find(|s| s.name == name)
    }

    fn flag_names(&self) -> impl Iterator<Item = &'static str> {
        self.flags.iter().flat_map(|group| group.iter().copied())
    }

    /// Parses `args`: the subcommand's defaults, then each flag in turn.
    /// Arguments that do not start with `--` are returned as operands.
    fn parse(&self, args: &[String]) -> Result<(CliArgs, Vec<String>), String> {
        let mut a = (self.defaults)();
        let mut operands = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                operands.push(arg.clone());
                continue;
            }
            if !self.flag_names().any(|f| f == arg) {
                return Err(format!("unknown option `{arg}`"));
            }
            let f = flag(arg);
            let value = match f.arg {
                Some(_) => args.next().ok_or_else(|| format!("{arg} needs a value"))?,
                None => "",
            };
            (f.set)(&mut a, value).map_err(|e| format!("{arg}: {e}"))?;
        }
        if self.operands.is_empty() {
            if let Some(op) = operands.first() {
                return Err(format!("{} takes no operand, got `{op}`", self.name));
            }
        }
        Ok((a, operands))
    }
}

/// `acr_cli <sub>` plus flags of `a`: those in `always` unconditionally,
/// those in `changed` only where they differ from the subcommand's
/// defaults. Switches appear bare.
fn command_line(sub: &str, a: &CliArgs, always: &[&str], changed: &[&str]) -> String {
    let defaults = (Subcommand::named(sub).expect("a subcommand").defaults)();
    let mut out = format!("acr_cli {sub}");
    for &name in always.iter().chain(changed) {
        let f = flag(name);
        let value = (f.show)(a);
        if !always.contains(&name) && value == (f.show)(&defaults) {
            continue;
        }
        let _ = match value {
            Some(v) if v.is_empty() => write!(out, " {name}"),
            Some(v) => write!(out, " {name} {v}"),
            None => Ok(()),
        };
    }
    out
}

/// The usage text: the subcommand list, then each subcommand's flags
/// with its own defaults.
fn usage() -> String {
    let mut out = String::from(
        "acr_cli — ACR (Amnesic Checkpointing and Recovery) reproduction driver\n\nUSAGE:\n",
    );
    for sub in SUBCOMMANDS {
        let head = match (sub.operands, sub.flags.is_empty()) {
            ("", false) => format!("acr_cli {} [OPTIONS]", sub.name),
            ("", true) => format!("acr_cli {}", sub.name),
            (ops, false) => format!("acr_cli {} {ops} [OPTIONS]", sub.name),
            (ops, true) => format!("acr_cli {} {ops}", sub.name),
        };
        let mut about = sub.about.lines();
        let first = about.next().unwrap_or_default();
        let _ = if head.len() < 29 {
            writeln!(out, "    {head:<29}{first}")
        } else {
            writeln!(out, "    {head}\n{:33}{first}", "")
        };
        for line in about {
            let _ = writeln!(out, "{:33}{line}", "");
        }
    }
    for sub in SUBCOMMANDS.iter().filter(|s| !s.flags.is_empty()) {
        let _ = writeln!(out, "\n{} OPTIONS:", sub.name.to_uppercase());
        let defaults = (sub.defaults)();
        for f in sub.flag_names().map(flag) {
            let head = f
                .arg
                .map_or(f.name.to_owned(), |arg| format!("{} {arg}", f.name));
            let default = match (f.arg, (f.show)(&defaults)) {
                (Some(_), Some(d)) => format!(" (default {d})"),
                _ => String::new(),
            };
            let _ = if head.len() < 18 {
                writeln!(out, "    {head:<18}{}{default}", f.help)
            } else {
                writeln!(out, "    {head}\n{:22}{}{default}", "", f.help)
            };
        }
    }
    out.push_str(USAGE_NOTES);
    out
}

const USAGE_NOTES: &str = "
NOTES:
    --jobs 0 means ACR_JOBS from the environment, else the available
    parallelism; every byte of output except host.* timings is the same
    for every value. inject samples every 5000 cycles when --metrics-out
    is given without --sample-interval; trace requires a positive
    interval. trace and profile with several workloads give each output
    file a .<name> suffix before its extension. bench writes
    BENCH_<name>.json and shrink repro.<workload>.case<NNNN>.json unless
    --out is given. inject writes postmortem.<workload>.case<NNNN>.json
    bundles, soak postmortem.<workload>.chunk<NNNN>.case<NNNN>.json. A
    soak cursor pins the seed, the chunk size and a grid fingerprint.
    diff --host-gate tput fails on a host.tput.cycles_per_sec drop beyond
    the tolerance, never on growth; sim mismatches always fail.

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

/// The sim-relevant configuration of an inject-style campaign as ordered
/// manifest pairs. Execution knobs that must not change results (`--jobs`,
/// `--progress`, output paths) are deliberately excluded so the manifest's
/// gated section stays identical across them.
fn inject_config(a: &CliArgs) -> Vec<(String, String)> {
    [
        ("seed", a.seed.to_string()),
        ("faults", a.faults.to_string()),
        ("workloads", names(&a.workloads)),
        ("threads", a.threads.to_string()),
        ("scale", a.scale.to_string()),
        ("checkpoints", a.checkpoints.to_string()),
        ("latency", a.latency.to_string()),
        ("kinds", kinds_str(a.kinds)),
        (
            "storm",
            (flag("--storm").show)(a).unwrap_or_else(|| "off".to_owned()),
        ),
        ("watchdog_budget", a.watchdog_budget.to_string()),
        ("policy", a.policy().to_string()),
        ("scheme", scheme_str(a.scheme).to_string()),
        ("recovery_faults", a.recovery_faults.to_string()),
        ("generations", a.generations.to_string()),
        ("sample_interval", a.sample_interval.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// The exact command line that reproduces an inject campaign (and with it
/// every postmortem bundle it writes) — stamped into each bundle so a
/// triage report is self-describing. Execution knobs that cannot change
/// results (`--jobs`, `--progress`, output paths) are omitted.
fn repro_line(a: &CliArgs) -> String {
    command_line(
        "inject",
        a,
        &[
            "--seed",
            "--faults",
            "--workloads",
            "--threads",
            "--scale",
            "--checkpoints",
            "--latency",
            "--kinds",
            "--policy",
            "--scheme",
        ],
        &[
            "--storm",
            "--watchdog-budget",
            "--recovery-faults",
            "--generations",
            "--sample-interval",
        ],
    )
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
fn campaign_items(a: &CliArgs) -> Vec<CampaignSweepItem> {
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
                program: a.program(bench),
                campaign: CampaignConfig {
                    seed: a.seed.wrapping_add(i as u64),
                    count,
                    ..a.campaign()
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

fn inject(a: CliArgs) -> Result<ExitCode, String> {
    let a = a.with_sampling_default();
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
        run_campaign_sweep(&items, a.jobs, |item| a.spec(item_bench(&item.name)))
    });
    let mut digest = SweepDigest::new(loads);

    for o in outcomes {
        let name = o.name;
        let run = o.run.map_err(|e| format!("{name}: {e}"))?;
        let r = &run.report;
        host.add_phase_ns(&name, o.host_ns);
        digest.fold(&name, &run, &mut merged);

        outln!("== {} ({}) ==", name, run.label);
        if a.progress {
            out!("{}", r.case_log);
        }
        out!("{}", r.summary());
        outln!(
            "  recovery energy {:.6e} J over {:.6e} s",
            run.recovery_energy_joules,
            run.recovery_seconds
        );
        for c in r
            .cases
            .iter()
            .filter(|c| c.outcome == CaseOutcome::Diverged)
        {
            outln!(
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
                outln!("  postmortem -> {path}");
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
            outln!("  cases written to {path}");
        }
    }

    outln!("== campaign total ==");
    outln!(
        "  injected {injected}  detected {detected}  recovered {recovered}  \
         diverged {diverged}  aborted {aborted}"
    );
    outln!(
        "  outcome classes: recovered {}  due {}  sdc {}  hang {}",
        classes.0,
        classes.1,
        classes.2,
        classes.3
    );
    outln!(
        "  state-divergence count {divergent_words}  recovery cycles {recovery_cycles}  \
         recovery energy {recovery_energy:.6e} J"
    );
    if a.recovery_faults {
        outln!(
            "  escalation total: replay_retries {replay_retries}  \
             generation_fallbacks {generation_fallbacks}  \
             degraded_entries {degraded_entries}"
        );
    }
    if let Some(path) = &a.metrics_out {
        std::fs::write(path, &metrics_jsonl).map_err(|e| format!("{path}: {e}"))?;
        outln!(
            "  baseline metrics written to {path} (every {} cycles)",
            a.sample_interval
        );
    }
    outln!("  combined hash {:#018x}", digest.combined());
    if a.print_metrics {
        let pairs: Vec<(String, u64)> = merged.iter().map(|(k, v)| (k.to_owned(), v)).collect();
        outln!("  merged metrics ({} keys):", pairs.len());
        out!("{}", metrics_table(&pairs));
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
        outln!("  manifest -> {path}");
    }
    Ok(if diverged > 0 || aborted > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// The exact command line that reproduces a soak stream (stamped into
/// every postmortem the soak writes). Execution knobs that cannot change
/// chunk results (`--jobs`, budgets, output paths) are omitted — the
/// stream is fully determined by seed, chunk size and the grid.
fn soak_repro_line(a: &CliArgs) -> String {
    command_line(
        "soak",
        a,
        &[
            "--workloads",
            "--seed",
            "--chunk",
            "--threads",
            "--scale",
            "--checkpoints",
            "--latency",
            "--policy",
            "--models",
            "--resilience",
        ],
        &[],
    )
}

/// One cached `Experiment` per soak workload (instrumentation is paid
/// once, not once per chunk).
fn soak_experiments(a: &CliArgs) -> Result<Vec<(String, Experiment)>, String> {
    a.workloads
        .iter()
        .map(|&bench| Ok((bench.name().to_string(), a.experiment(bench)?)))
        .collect()
}

fn soak(a: CliArgs) -> Result<ExitCode, String> {
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
    outln!(
        "== soak: {} combos x {} cases/chunk, seed {} ==",
        grid.combos.len(),
        a.chunk,
        a.seed
    );
    if cursor.chunks_done > 0 {
        let (done, ..) = cursor.totals();
        outln!(
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

    out!("{}", out.log);
    outln!(
        "== soak matrix ({} chunks total, {} this run) ==",
        out.cursor.chunks_done,
        out.chunks_run
    );
    out!("{}", out.cursor.matrix());
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
        outln!("  {} postmortems -> {dir}", out.postmortems.len());
    }
    if a.print_metrics {
        let pairs: Vec<(String, u64)> =
            out.metrics.iter().map(|(k, v)| (k.to_owned(), v)).collect();
        outln!("  soak metrics ({} keys):", pairs.len());
        out!("{}", metrics_table(&pairs));
    }
    if let Some(path) = &a.cursor {
        std::fs::write(path, out.cursor.to_json()).map_err(|e| format!("{path}: {e}"))?;
        outln!("  cursor -> {path}");
    }
    let (_, _, _, sdc, _) = out.cursor.totals();
    if sdc > 0 {
        outln!("  SILENT DATA CORRUPTION: {sdc} case(s) — triage the postmortems");
        Ok(ExitCode::from(1))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// The `acr.repro.v1` document: everything `--replay` needs to rebuild
/// the exact engine configuration, plus the minimal fault plan. Fractions
/// are strings (their `Display` text parses back exactly); the seed is a
/// hex string.
fn repro_doc(a: &CliArgs, workload: Benchmark, out: &ShrinkOutcome) -> String {
    let faults = out.minimal.iter().map(fault_value).collect();
    Json::obj([
        ("schema", REPRO_SCHEMA.into()),
        ("workload", workload.name().into()),
        ("case", a.case.into()),
        ("seed", Json::Str(format!("{:#x}", a.seed))),
        ("threads", a.threads.into()),
        ("scale", Json::Str(a.scale.to_string())),
        ("checkpoints", a.checkpoints.into()),
        ("latency", Json::Str(a.latency.to_string())),
        ("policy", a.policy().into()),
        ("recovery_faults", a.recovery_faults.into()),
        ("generations", a.generations.into()),
        ("watchdog_budget", a.watchdog_budget.into()),
        ("trigger", out.failure.trigger.into()),
        (
            "probable_cause",
            out.failure.bundle.probable_cause.as_str().into(),
        ),
        ("original_faults", out.original_faults.into()),
        ("faults", Json::Arr(faults)),
    ])
    .to_document(JsonStyle::SPACED, &["faults"])
}

/// Reads an `acr.repro.v1` document back into the arguments `shrink` ran
/// with, its workload and its minimal plan.
fn repro_from_json(j: &Json) -> Result<(CliArgs, Benchmark, Vec<Fault>), String> {
    let schema = jstr(j, "schema");
    if schema != REPRO_SCHEMA {
        return Err(format!(
            "unknown repro schema `{schema}` (expected {REPRO_SCHEMA})"
        ));
    }
    let name = j.str_field("workload")?;
    let workload =
        Benchmark::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let threads = j.u64_field("threads")?;
    if !(1..=u64::from(MAX_CORES)).contains(&threads) {
        return Err(format!("field `threads` outside 1..={MAX_CORES}"));
    }
    let fraction = |key: &str, parse: fn(&str) -> Result<f64, String>| {
        parse(j.str_field(key)?).map_err(|e| format!("field `{key}`: {e}"))
    };
    let small = |key: &str| -> Result<u32, String> {
        let v = j.u64_field(key)?;
        u32::try_from(v).map_err(|_| format!("field `{key}`: {v} is out of range"))
    };
    let faults = j
        .arr_field("faults")?
        .iter()
        .enumerate()
        .map(|(i, f)| fault_from_json(f).map_err(|e| format!("faults[{i}]: {e}")))
        .collect::<Result<Vec<Fault>, String>>()?;
    let a = CliArgs {
        seed: j.hex_field("seed")?,
        faults: faults.len().max(1) as u32,
        threads: threads as u32,
        scale: fraction("scale", scale)?,
        checkpoints: small("checkpoints")?,
        latency: fraction("latency", latency)?,
        amnesic: j.str_field("policy")? == "acr",
        recovery_faults: j.bool_field("recovery_faults")?,
        generations: small("generations")?.max(1),
        watchdog_budget: j.u64_field("watchdog_budget")?,
        case: j.u64_field("case")? as usize,
        ..CliArgs::default()
    };
    Ok((a, workload, faults))
}

/// Re-runs a repro document's minimal plan exactly once: exit 1 when the
/// failure reproduces (same-signature triage can proceed), 0 when it no
/// longer fails (the repro is stale). A field `shrink` could not have
/// written is an error before anything runs.
fn shrink_replay(path: &str) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let (a, workload, faults) = repro_from_json(&j).map_err(|e| format!("{path}: {e}"))?;
    let mut exp = a.experiment(workload)?;
    let mem_bytes = exp.program().mem_bytes();
    for (i, f) in faults.iter().enumerate() {
        f.check(a.threads, mem_bytes)
            .map_err(|e| format!("{path}: faults[{i}]: {e}"))?;
    }
    outln!(
        "== replay: {} case {:04}, {} fault(s) ==",
        workload.name(),
        a.case,
        faults.len()
    );
    match exp
        .replay_fault_case(&a.campaign(), a.amnesic, a.case, &faults)
        .map_err(|e| e.to_string())?
    {
        Some(failure) => {
            outln!(
                "  reproduced: trigger {} (recorded {})",
                failure.trigger,
                jstr(&j, "trigger")
            );
            outln!("  probable cause: {}", failure.bundle.probable_cause);
            Ok(ExitCode::from(1))
        }
        None => {
            outln!("  did not reproduce: the plan no longer fails");
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn shrink(a: CliArgs) -> Result<ExitCode, String> {
    if let Some(path) = &a.replay {
        return shrink_replay(path);
    }
    let workload = a.workload()?;
    let cfg = a.campaign();
    let mut exp = a.experiment(workload)?;
    let faults = exp
        .plan_dense_faults(&cfg, a.amnesic)
        .map_err(|e| e.to_string())?;
    outln!(
        "== shrink: {} case {:04}, {} planned fault(s) ==",
        workload.name(),
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
    outln!(
        "  {} fault(s) -> {} ({} dropped, {} field(s) narrowed) in {} round(s), \
         {} evaluation(s)",
        out.original_faults,
        out.minimal.len(),
        out.dropped_faults(),
        out.narrowed_fields,
        out.rounds,
        out.evaluations
    );
    outln!(
        "  forked {} evaluation(s) from commit snapshots, skipping {} fault-free \
         instruction(s); {} snapshot build(s)",
        out.fork.forked_evaluations,
        out.fork.prefix_instructions_skipped,
        out.fork.snapshot_builds
    );
    outln!("  trigger {}", out.failure.trigger);
    outln!("  probable cause: {}", out.failure.bundle.probable_cause);
    outln!("  minimal plan:");
    for f in &out.minimal {
        outln!("    {}", fault_to_json(f));
    }
    let out_path = a
        .out
        .clone()
        .unwrap_or_else(|| format!("repro.{}.case{:04}.json", workload.name(), a.case));
    std::fs::write(&out_path, repro_doc(&a, workload, &out))
        .map_err(|e| format!("{out_path}: {e}"))?;
    outln!("  repro -> {out_path}");
    outln!("  replay: acr_cli shrink --replay {out_path}");
    Ok(ExitCode::SUCCESS)
}

/// The sim-relevant configuration of a trace/profile run as ordered
/// manifest pairs (`--jobs` and output paths excluded; see
/// [`inject_config`]).
fn faulted_config(a: &CliArgs) -> Vec<(String, String)> {
    [
        ("seed", a.seed.to_string()),
        ("faults", a.faults.to_string()),
        ("workloads", names(&a.workloads)),
        ("threads", a.threads.to_string()),
        ("scale", a.scale.to_string()),
        ("checkpoints", a.checkpoints.to_string()),
        ("scheme", scheme_str(a.scheme).to_string()),
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

fn trace(a: CliArgs) -> Result<ExitCode, String> {
    if a.sample_interval == 0 {
        return Err("--sample-interval must be positive".into());
    }
    let out = a.out.as_deref().expect("trace defaults --out");
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
            program: a.program(bench),
        })
        .collect();
    let outcomes = host.time("sweep", || {
        run_faulted_sweep(
            &items,
            a.jobs,
            Some(a.detail),
            |item| {
                a.spec(item_bench(&item.name))
                    .with_checkpoints(a.checkpoints)
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
            suffixed(out, &name)
        } else {
            out.to_owned()
        };
        let json = chrome_trace_json(&run.events, Some(&report.series));
        std::fs::write(&out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;
        sim_hashes.push((name.clone(), fnv1a(json.as_bytes())));

        outln!(
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
            outln!(
                "  recovery {i}: fault landed at cycle {landed}, detected at cycle {}, \
                 stalled {} cycles ({} values recomputed by Slice replay)",
                rec.detected_at_cycles,
                rec.stall_cycles,
                rec.recomputed_values
            );
        }
        outln!(
            "  {} trace events + {} metric samples (every {} cycles) -> {}",
            run.events.len(),
            report.series.samples().len(),
            a.sample_interval,
            out_path
        );
        if a.print_metrics {
            if let Some(sample) = report.series.samples().last() {
                outln!("  final metrics sample (cycle {}):", sample.cycle);
                out!("{}", metrics_table(&sample.values));
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
            outln!("  metrics samples -> {path}");
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
        let mut config = faulted_config(&a);
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
        outln!("manifest -> {path}");
    }
    Ok(ExitCode::SUCCESS)
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

fn profile(a: CliArgs) -> Result<ExitCode, String> {
    let multi = a.workloads.len() > 1;
    let items: Vec<FaultedSweepItem> = a
        .workloads
        .iter()
        .map(|&bench| FaultedSweepItem {
            name: bench.name().to_owned(),
            program: a.program(bench),
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
                let spec = a
                    .spec(item_bench(&item.name))
                    .with_checkpoints(a.checkpoints)
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

        outln!(
            "profiled {} ({}): {} cycles, {} attribution sites, {} retires",
            name,
            result.label,
            result.cycles,
            prof.len(),
            prof.total_retires(),
        );
        let (p50, p90, p99) = prof.tick_histogram().digest();
        outln!("  retire ticks p50 {p50} p90 {p90} p99 {p99}");
        outln!(
            "  decisions {}: {} omitted, {} logged",
            ledger.total_decisions(),
            omitted,
            logged
        );

        // Hottest sites by attributed ticks (ties broken by site order).
        let mut sites: Vec<_> = prof.iter().collect();
        sites.sort_by(|a, b| b.1.ticks.cmp(&a.1.ticks).then(a.0.cmp(b.0)));
        outln!(
            "  {:<5} {:<10} {:<16} {:>9} {:>9} {:>8} {:>8}",
            "core",
            "pc",
            "region",
            "retires",
            "ticks",
            "mem",
            "stall"
        );
        for ((core, pc), c) in sites.into_iter().take(a.top) {
            outln!(
                "  {core:<5} {:<10} {:<16} {:>9} {:>9} {:>8} {:>8}",
                format!("0x{pc:x}"),
                iprog.label_at(*core, *pc).unwrap_or("code"),
                c.retires,
                c.ticks,
                c.mem_ticks,
                c.stall_ticks
            );
        }
        outln!("  flamegraph -> {flame_out}");
        outln!("  ledger -> {ledger_out}");

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
            outln!("  trace -> {path}");
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
            config: faulted_config(&a),
            sim_hashes,
            metrics_digest: metrics_digest.finish(),
            host: host.finish(),
            bench: None,
        };
        write_manifest(path, &m)?;
        outln!("manifest -> {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn bench(a: CliArgs) -> Result<ExitCode, String> {
    let a = a.with_sampling_default();
    let items = campaign_items(&a);
    let spec_for = |item: &CampaignSweepItem| a.spec(item_bench(&item.name));
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
    outln!(
        "benchmark {}: faults {} workloads {} jobs {} — {} warmup + {} timed reps",
        a.name,
        a.faults,
        a.workloads
            .iter()
            .map(|w| w.name())
            .collect::<Vec<_>>()
            .join(","),
        a.jobs,
        a.warmup,
        a.reps
    );
    for _ in 0..a.warmup {
        host.time("warmup", run_once)?;
    }

    let mut samples = Vec::with_capacity(a.reps as usize);
    let mut loads: Vec<WorkerLoad> = Vec::new();
    let mut reference: Option<SweepDigest> = None;
    for rep in 0..a.reps {
        let sw = Stopwatch::start();
        let digest = run_once()?;
        let ns = sw.elapsed_ns();
        host.add_phase_ns("reps", ns);
        samples.push(ns);
        outln!(
            "  rep {}/{}: {:.3} s  combined {:#018x}",
            rep + 1,
            a.reps,
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
    let stats = BenchStats::from_samples(&samples, u64::from(a.warmup));
    outln!(
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
    let mut off_samples = Vec::with_capacity(a.reps as usize);
    for _ in 0..a.reps {
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
    outln!(
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
        config: inject_config(&a),
        sim_hashes: reference.sim_hashes(),
        metrics_digest: reference.digest,
        host: host.finish(),
        bench: Some(stats),
    };
    let out_path = a
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{}.json", a.name));
    write_manifest(&out_path, &m)?;
    outln!("manifest -> {out_path}");
    if let Some(path) = &a.manifest_out {
        write_manifest(path, &m)?;
        outln!("manifest -> {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn diff(a: CliArgs, paths: &[String]) -> Result<ExitCode, String> {
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
    let report = diff_manifests(&baseline, &candidate, &a.diff);
    out!("{}", report.render());
    Ok(if report.failed() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Object member as a string (`"?"` for absent or mistyped keys — the
/// renderer degrades instead of erroring on a hand-edited bundle).
fn jstr<'a>(j: &'a Json, key: &str) -> &'a str {
    j.str_field(key).unwrap_or("?")
}

/// Object member as an unsigned integer (0 when absent or mistyped).
fn jnum(j: &Json, key: &str) -> u64 {
    j.u64_field(key).unwrap_or(0)
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
fn explain(operands: &[String]) -> Result<ExitCode, String> {
    let [path] = operands else {
        return Err("explain takes exactly one postmortem bundle path".into());
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
    outln!(
        "== postmortem: {} case {} — {} ==",
        if workload.is_empty() { "?" } else { workload },
        jnum(&j, "case"),
        jstr(&j, "trigger")
    );
    outln!(
        "  seed {}  outcome {}",
        jnum(&j, "seed"),
        jstr(&j, "outcome")
    );
    if let Some(f) = j.get("fault") {
        outln!(
            "  fault: {} ({}) on core {}, planned at progress {}, landed at cycle {}",
            jstr(f, "kind"),
            jstr(f, "detail"),
            jnum(f, "core"),
            jnum(f, "at_progress"),
            jnum(f, "landing_cycle")
        );
    }
    match j.get("recovery_fault") {
        Some(Json::Str(s)) => outln!("  recovery fault: {s}"),
        _ => outln!("  recovery fault: none"),
    }
    if let Some(m) = j.get("machine") {
        outln!(
            "  machine: {} cycles, {} retired, mem fnv {}",
            jnum(m, "cycles"),
            jnum(m, "final_retired"),
            jstr(m, "mem_fnv")
        );
        outln!(
            "  divergence: {} mem, {} reg, {} shadow words",
            jnum(m, "mem_divergence"),
            jnum(m, "reg_divergence"),
            jnum(m, "shadow_divergence")
        );
    }
    if let Some(l) = j.get("log") {
        outln!(
            "  log: {} words logged, {} omitted over the case lifetime",
            jnum(l, "lifetime_logged"),
            jnum(l, "lifetime_omitted")
        );
        let tail = l
            .get("intervals_tail")
            .and_then(Json::as_arr)
            .unwrap_or_default();
        if !tail.is_empty() {
            outln!(
                "  interval tail (last {}, {} earlier dropped):",
                tail.len(),
                jnum(l, "intervals_dropped")
            );
            for iv in tail {
                outln!(
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
        outln!("  invariants: {} breaches", jnum(inv, "breaches"));
        if let Some(Json::Obj(monitors)) = inv.get("monitors") {
            for (name, m) in monitors {
                outln!(
                    "    {name:<24} {} checks, {} breaches",
                    jnum(m, "checks"),
                    jnum(m, "breaches")
                );
            }
        }
        if let Some(fb) = inv.get("first_breach") {
            if !matches!(fb, Json::Null) {
                outln!(
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
        outln!(
            "  escalation: {} recoveries, {} ladder exhaustions",
            steps.len(),
            jnum(esc, "exhausted")
        );
        for s in steps {
            outln!(
                "    detected at cycle {}: safe epoch {}, {} re-replays, \
                 {} generation fallbacks, degraded {}",
                jnum(s, "detected_at_cycles"),
                jnum(s, "safe_epoch"),
                jnum(s, "replay_retries"),
                jnum(s, "generation_fallbacks"),
                s.bool_field("degraded_entered").unwrap_or(false)
            );
        }
    }
    let rings = j.get("rings").and_then(Json::as_arr).unwrap_or_default();
    if rings.is_empty() {
        outln!("  timeline: no flight-recorder rings captured");
    } else {
        const SHOW: usize = 80;
        let (lines, dropped) = explain_timeline(rings);
        let skip = lines.len().saturating_sub(SHOW);
        let suffix = if skip > 0 {
            format!(", showing last {SHOW}")
        } else {
            String::new()
        };
        outln!(
            "  timeline: {} events retained across {} rings \
             ({dropped} older events dropped){suffix}",
            lines.len(),
            rings.len()
        );
        for line in lines.iter().skip(skip) {
            outln!("    {line}");
        }
    }
    outln!("  probable cause: {}", jstr(&j, "probable_cause"));
    let repro = jstr(&j, "repro");
    if !repro.is_empty() && repro != "?" {
        outln!("  repro: {repro}");
    }
    Ok(ExitCode::SUCCESS)
}

/// The benchmark a sweep item was built from.
fn item_bench(name: &str) -> Benchmark {
    Benchmark::from_name(name).expect("items are built from benchmarks")
}

fn workloads_list() -> Result<ExitCode, String> {
    for b in Benchmark::ALL {
        outln!("{}", b.name());
    }
    Ok(ExitCode::SUCCESS)
}

/// Prints one configuration's time, energy, checkpoint and recovery
/// figures, with overheads against `base` when given.
fn print_result(label: &str, r: &RunResult, base: Option<&RunResult>) {
    outln!("--- {label} ---");
    outln!("  cycles          {:>14}", r.cycles);
    outln!("  time            {:>14.6} ms", r.seconds * 1e3);
    outln!(
        "  energy          {:>14.6} mJ",
        r.energy.total_joules() * 1e3
    );
    outln!("  EDP             {:>14.6e} J*s", r.edp);
    if let Some(b) = base {
        outln!(
            "  time overhead   {:>13.2}% vs {}",
            r.time_overhead_pct(b),
            b.label
        );
        outln!(
            "  energy overhead {:>13.2}% vs {}",
            r.energy_overhead_pct(b),
            b.label
        );
    }
    if let Some(rep) = &r.report {
        outln!("  checkpoints     {:>14}", rep.checkpoints_taken);
        outln!("  ckpt bytes      {:>14}", rep.total_checkpoint_bytes());
        if rep.total_baseline_bytes() > rep.total_checkpoint_bytes() {
            outln!(
                "  size reduction  {:>13.2}% (max interval {:.2}%)",
                rep.overall_reduction_pct(),
                rep.max_interval_reduction_pct()
            );
        }
        if rep.errors_handled > 0 {
            let recomputed: u64 = rep.recoveries.iter().map(|x| x.recomputed_values).sum();
            let waste: u64 = rep.recoveries.iter().map(|x| x.waste_cycles).sum();
            outln!("  errors handled  {:>14}", rep.errors_handled);
            outln!("  recomputed      {:>14}", recomputed);
            outln!("  wasted cycles   {:>14}", waste);
        }
        if rep.secondary_checkpoints > 0 {
            outln!(
                "  level-2 ckpts   {:>14} ({} B)",
                rep.secondary_checkpoints,
                rep.secondary_bytes
            );
        }
    }
    if let Some(a) = &r.acr {
        outln!(
            "  AddrMap         {:>14} writes, {} reads, peak {} live, {} capacity drops",
            a.addrmap_writes,
            a.addrmap_reads,
            a.addrmap_peak_live,
            a.capacity_rejections
        );
    }
}

/// Runs one workload's `No_Ckpt` baseline, then its `ReCkpt` run with the
/// `Ckpt` baseline for context (`--policy acr`), the `Ckpt` run alone
/// (`--policy baseline`), or uniform against adaptive placement
/// (`--adaptive`).
fn experiment(a: CliArgs) -> Result<ExitCode, String> {
    let bench = a.workload()?;
    // `--seed` is the workload generator's seed here.
    let program = generate(
        bench,
        &WorkloadConfig {
            threads: a.threads,
            scale: a.scale,
            seed: a.seed,
        },
    );
    outln!(
        "workload {} — {} threads, {} static instrs, {} B image",
        bench,
        program.num_threads(),
        program.static_len(),
        program.mem_bytes()
    );
    let mut spec = ExperimentSpec {
        detection_latency_frac: a.latency,
        ..a.spec(bench)
    }
    .with_checkpoints(a.checkpoints)
    .with_scheme(a.scheme)
    .with_oracle(a.oracle);
    if let Some(t) = a.threshold {
        spec = spec.with_threshold(t);
    }
    if let Some(cap) = a.addrmap {
        spec.addrmap = AddrMapConfig {
            capacity_per_core: cap,
        };
    }
    if let Some(every) = a.secondary {
        spec.secondary = Some(SecondaryStorage {
            every,
            ..Default::default()
        });
    }
    let err = |e: ExperimentError| e.to_string();
    let mut exp = Experiment::new(program, spec).map_err(err)?;
    let no = exp.run_no_ckpt().map_err(err)?;
    print_result("No_Ckpt", &no, None);

    if a.adaptive && a.amnesic {
        let outcome = placement::tune(&mut exp, 4).map_err(err)?;
        print_result("ReCkpt (uniform)", &outcome.uniform, Some(&no));
        print_result("ReCkpt (adaptive placement)", &outcome.adaptive, Some(&no));
        outln!(
            "adaptive placement: {:+.2}% bytes, {:+.2}% time vs uniform",
            outcome.bytes_improvement_pct(),
            outcome.time_improvement_pct()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let main = if a.amnesic {
        exp.run_reckpt(a.errors)
    } else {
        exp.run_ckpt(a.errors)
    }
    .map_err(err)?;
    print_result(&main.label, &main, Some(&no));
    if a.amnesic {
        // Show the baseline for context.
        let base = exp.run_ckpt(a.errors).map_err(err)?;
        print_result(&base.label, &base, Some(&no));
        outln!(
            "ACR vs baseline: {:.2}% time, {:.2}% energy, {:.2}% EDP reduction",
            100.0 * (base.cycles as f64 - main.cycles as f64) / base.cycles as f64,
            100.0 * (base.energy.total_joules() - main.energy.total_joules())
                / base.energy.total_joules(),
            main.edp_reduction_pct(&base),
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => "help",
        Some(name) => name,
    };
    // One dispatcher, one error path: every subcommand returns
    // `Result<ExitCode, String>`; any `Err` prints a single `error: …`
    // line on stderr and exits 2 (usage/config), while gate failures
    // (inject divergence/abort, diff regression) exit 1 via `Ok`.
    let result = Subcommand::named(name)
        .ok_or_else(|| format!("unknown subcommand `{name}` (try `acr_cli help`)"))
        .and_then(|sub| {
            let (a, operands) = sub.parse(args.get(1..).unwrap_or_default())?;
            (sub.run)(a, &operands)
        });
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inject_args(args: &str) -> CliArgs {
        let args: Vec<String> = args.split_whitespace().map(str::to_owned).collect();
        let (a, operands) = Subcommand::named("inject").unwrap().parse(&args).unwrap();
        assert!(operands.is_empty());
        a
    }

    #[test]
    fn repro_line_parses_back_to_the_same_args() {
        for args in [
            "",
            "--seed 7 --faults 30 --workloads cg --threads 2 --scale 0.03 --kinds mem",
            "--kinds reg,pc,mem,burst,stuck --storm 200,3 --watchdog-budget 400000",
            "--recovery-faults --generations 3 --policy baseline --scheme local",
            "--latency 0.25 --checkpoints 7 --sample-interval 4000 --threads 64",
        ] {
            let a = inject_args(args);
            let line = repro_line(&a);
            let rest = line.strip_prefix("acr_cli inject").unwrap();
            assert_eq!(inject_args(rest), a, "{args} -> {line}");
        }
    }

    #[test]
    fn repro_line_names_only_changed_optional_flags() {
        assert_eq!(
            repro_line(&CliArgs::default()),
            "acr_cli inject --seed 42 --faults 1000 --workloads is,cg,mg --threads 4 \
             --scale 0.05 --checkpoints 12 --latency 0.5 --kinds reg,pc,crash --policy acr \
             --scheme global"
        );
    }

    #[test]
    fn every_table_flag_is_accepted_somewhere_and_documented() {
        let help = usage();
        for f in FLAGS {
            assert!(
                SUBCOMMANDS
                    .iter()
                    .any(|s| s.flag_names().any(|n| n == f.name)),
                "{} is accepted by no subcommand",
                f.name
            );
            assert!(help.contains(&format!("    {} ", f.name)), "{}", f.name);
        }
    }

    #[test]
    fn every_subcommand_names_only_table_flags_once() {
        for sub in SUBCOMMANDS {
            let names: Vec<&str> = sub.flag_names().collect();
            for (i, name) in names.iter().enumerate() {
                assert!(FLAGS.iter().any(|f| f.name == *name), "{name}");
                assert!(!names[..i].contains(name), "{} repeats {name}", sub.name);
            }
        }
    }

    /// A two-fault repro document's exact bytes, as the hand-written
    /// emitter that preceded the `Json` writer produced them.
    const GOLDEN_REPRO: &str = r#"{
  "schema": "acr.repro.v1",
  "workload": "cg",
  "case": 3,
  "seed": "0xdeadbeef",
  "threads": 2,
  "scale": "0.05",
  "checkpoints": 4,
  "latency": "0.25",
  "policy": "acr",
  "recovery_faults": true,
  "generations": 3,
  "watchdog_budget": 400000,
  "trigger": "divergence",
  "probable_cause": "mem fault (\"0x80b0\") planned at progress 1 -> divergence",
  "original_faults": 10,
  "faults": [
    {"at": 1, "core": 0, "kind": "mem", "addr": "0x80", "bit": 0},
    {"at": 1234, "core": 1, "kind": "stuck", "addr": "0x1f8", "bit": 63, "stuck_one": true}
  ]
}
"#;

    #[test]
    fn repro_doc_bytes_are_pinned() {
        use acr_mem::WordAddr;
        let a = CliArgs {
            seed: 0xdead_beef,
            case: 3,
            threads: 2,
            scale: 0.05,
            checkpoints: 4,
            latency: 0.25,
            recovery_faults: true,
            generations: 3,
            watchdog_budget: 400_000,
            ..CliArgs::default()
        };
        let faults = [
            Fault {
                at_progress: 1,
                core: CoreId(0),
                kind: FaultKind::MemBitFlip {
                    addr: WordAddr::new(0x80),
                    bit: 0,
                },
            },
            Fault {
                at_progress: 1234,
                core: CoreId(1),
                kind: FaultKind::StuckAt {
                    addr: WordAddr::new(0x1f8),
                    bit: 63,
                    stuck_one: true,
                },
            },
        ];
        let record = acr_ckpt::FaultCaseRecord {
            case: 3,
            fault: faults[0],
            recoveries: 1,
            exception_detections: 0,
            shadow_divergence: 0,
            mem_divergence: 2,
            reg_divergence: 0,
            final_retired: 1000,
            restored_records: 10,
            recomputed_values: 0,
            recompute_alu_ops: 0,
            recovery_stall_cycles: 40,
            waste_cycles: 80,
            cycles: 4000,
            landing_cycle: 2000,
            recovery_fault: None,
            replay_retries: 0,
            generation_fallbacks: 0,
            degraded_entries: 0,
            hung: false,
            outcome: CaseOutcome::Diverged,
        };
        let report = acr_ckpt::BerReport::default();
        let mut bundle = acr_ckpt::PostmortemBundle::capture(
            "divergence",
            42,
            &record,
            &report,
            &[0],
            (0, 0),
            None,
            None,
        );
        bundle.probable_cause = "mem fault (\"0x80b0\") planned at progress 1 -> divergence".into();
        let out = ShrinkOutcome {
            original_faults: 10,
            minimal: faults.to_vec(),
            failure: acr_ckpt::CaseFailure {
                trigger: "divergence",
                record,
                bundle,
            },
            rounds: 1,
            evaluations: 2,
            narrowed_fields: 0,
            fork: acr_ckpt::ForkStats::default(),
            metrics: MetricsRegistry::new(),
        };
        let doc = repro_doc(&a, Benchmark::Cg, &out);
        assert_eq!(doc, GOLDEN_REPRO);
        let j = parse_json(&doc).unwrap();
        let back: Vec<Fault> = j
            .arr_field("faults")
            .unwrap()
            .iter()
            .map(|f| fault_from_json(f).unwrap())
            .collect();
        assert_eq!(back, faults);
    }
}

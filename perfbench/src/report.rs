//! Run loops, output checks, per-layer derivation and the result line.

use std::fmt::Write as _;
use std::time::Instant;

use acr_trace::peak_rss_bytes;

use crate::layers::{probe, ratio, CoreTally, LayerClock, Probe, SEAMS, TRY_OMIT};
use crate::workloads::{Mode, Pass, SetupTimes, Workload};
use crate::Args;

/// Set-ups timed per run at least, even when fewer passes fit.
const MIN_SETUPS: usize = 5;

/// The result of one benchmark run.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut o = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                o,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        o.push_str("}}");
        o
    }
}

/// Median of `xs` (mean of the middle two for an even count; 0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of `f` over `items`.
fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Problems shared by every run: failed checks and passes that disagree
/// with the first plain pass.
struct Verdict {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Verdict {
    fn new() -> Self {
        Verdict {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Counts `pass`'s operations and checks it reproduces `reference`
    /// (its artifacts too when `artifacts`).
    fn add(&mut self, label: &str, pass: &Pass, reference: &Pass, artifacts: bool) {
        self.attempted += pass.ops;
        let mut failed = pass.failed;
        for p in &pass.problems {
            if !self.problems.contains(p) {
                self.problems.push(p.clone());
            }
        }
        let same = pass.fingerprint == reference.fingerprint
            && (!artifacts || pass.artifacts == reference.artifacts);
        if !same {
            failed = pass.ops;
            self.problems.push(format!(
                "{label} pass: fingerprint {:#018x}/{:#018x}, expected {:#018x}/{:#018x}",
                pass.fingerprint, pass.artifacts, reference.fingerprint, reference.artifacts
            ));
        }
        self.failed += failed;
    }

    fn finish(self, metrics: Vec<(String, f64, &'static str)>) -> Outcome {
        println!(
            "operations {} attempted, {} failed, error_rate {}",
            self.attempted,
            self.failed,
            ratio(self.failed as f64, self.attempted as f64)
        );
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        Outcome {
            correct: self.problems.is_empty() && self.failed == 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
        }
    }
}

/// Runs the workload as `args` asks.
///
/// # Errors
///
/// A set-up or pass that could not produce results.
pub fn drive<W: Workload>(w: &W, args: &Args) -> Result<Outcome, String> {
    if args.trace {
        traced(w, args)
    } else {
        plain(w, args)
    }
}

fn one<W: Workload>(w: &W, seed: u64, mode: Mode) -> Result<(Option<Pass>, SetupTimes), String> {
    let (inputs, setup) = w.setup(seed)?;
    Ok((w.run(inputs, seed, mode)?, setup))
}

fn plain_pass<W: Workload>(w: &W, seed: u64) -> Result<(Pass, SetupTimes), String> {
    let (pass, setup) = one(w, seed, Mode::Plain)?;
    Ok((pass.ok_or("the workload has no plain pass")?, setup))
}

fn print_lines(pass: &Pass) {
    for line in &pass.lines {
        println!("  {line}");
    }
}

/// End-to-end run: set-up plus one timed pass, repeated within budget.
fn plain<W: Workload>(w: &W, args: &Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut setups = Vec::new();
    loop {
        let t = Instant::now();
        let (pass, setup) = plain_pass(w, args.seed)?;
        passes.push(pass);
        setups.push(setup);
        // Stop when one more pass as long as this one would overrun.
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.push(w.setup(args.seed)?.1);
    }

    println!("== {} (seed {}) ==", args.workload, args.seed);
    print_lines(&passes[0]);
    let mut verdict = Verdict::new();
    for p in &passes {
        verdict.add("plain", p, &passes[0], true);
    }
    let metrics = vec![
        (
            "wall_s".to_owned(),
            median_of(&passes, |p| secs(p.wall_ns)),
            "s",
        ),
        (
            "sim_cycles_per_s".to_owned(),
            median_of(&passes, |p| ratio(p.sim_cycles as f64, secs(p.wall_ns))),
            "cycles/s",
        ),
        (
            "setup_s".to_owned(),
            median_of(&setups, |s| secs(s.total_ns())),
            "s",
        ),
        (
            "peak_rss_mb".to_owned(),
            peak_rss_bytes() as f64 / (1 << 20) as f64,
            "MB",
        ),
    ];
    for (name, v, unit) in &metrics {
        println!("  {name} {v} {unit}");
    }
    println!(
        "  {} timed pass(es), {} set-up(s), {:.1} s total",
        passes.len(),
        setups.len(),
        start.elapsed().as_secs_f64()
    );
    Ok(verdict.finish(metrics))
}

/// One traced pass with its layer tallies.
struct TracedPass {
    pass: Pass,
    tally: CoreTally,
}

/// Where one traced pass's wall time went, in seconds.
struct Reconciliation {
    interp: f64,
    sim_outside: f64,
    sim_engine: f64,
    core: f64,
    engine_self: f64,
    postmortem: f64,
    wall: f64,
}

impl Reconciliation {
    fn new(t: &TracedPass, probes: &[Probe]) -> Self {
        let (mut interp, mut sim_outside, mut sim_engine) = (0.0, 0.0, 0.0);
        for (work, probe) in t.pass.work.iter().zip(probes) {
            interp += work.interp_runs as f64 * secs(probe.interp_ns);
            sim_outside += work.baseline_runs as f64 * secs(probe.sim_ns);
            sim_engine += work.engine_instrs as f64 * probe.ns_per_instr() * 1e-9;
        }
        let core = secs(t.tally.core_ns());
        Reconciliation {
            interp,
            sim_outside,
            sim_engine,
            core,
            engine_self: secs(t.tally.engine_ns) - sim_engine - core,
            postmortem: secs(t.pass.postmortem_ns),
            wall: secs(t.pass.wall_ns),
        }
    }

    fn explained(&self) -> f64 {
        self.interp
            + self.sim_outside
            + self.sim_engine
            + self.core
            + self.engine_self
            + self.postmortem
    }

    fn residual_pct(&self) -> f64 {
        100.0 * ratio(self.wall - self.explained(), self.wall)
    }
}

/// Per-layer run: untraced, traced and recorder-off passes take turns
/// within budget, each round starting one step later; then one parallel
/// pass and the isolated probes.
fn traced<W: Workload>(w: &W, args: &Args) -> Result<Outcome, String> {
    let seed = args.seed;
    let start = Instant::now();
    let mut plains = Vec::new();
    let mut traced = Vec::new();
    let mut recorder_offs = Vec::new();
    let mut has_recorder = true;
    let mut setups = Vec::new();
    for round in 0.. {
        let t = Instant::now();
        for step in 0..3 {
            match (round + step) % 3 {
                0 => {
                    let (pass, setup) = plain_pass(w, seed)?;
                    plains.push(pass);
                    setups.push(setup);
                }
                1 => {
                    let clock = LayerClock::default();
                    let (pass, setup) = one(w, seed, Mode::Traced(&clock))?;
                    traced.push(TracedPass {
                        pass: pass.ok_or("the workload has no traced pass")?,
                        tally: clock.tally(),
                    });
                    setups.push(setup);
                }
                _ if has_recorder => match one(w, seed, Mode::RecorderOff)?.0 {
                    Some(pass) => recorder_offs.push(pass),
                    None => has_recorder = false,
                },
                _ => {}
            }
        }
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallel = one(w, seed, Mode::Parallel(jobs))?.0;
    let (mut inputs, _) = w.setup(seed)?;
    let probes = w
        .programs(&mut inputs)
        .iter()
        .map(|&(program, machine)| probe(program, machine))
        .collect::<Result<Vec<_>, _>>()?;
    drop(inputs);

    println!("== {} (seed {}, traced) ==", args.workload, seed);
    print_lines(&plains[0]);
    let reference = &plains[0];
    let mut verdict = Verdict::new();
    for p in &plains {
        verdict.add("plain", p, reference, true);
    }
    for t in &traced {
        verdict.add("traced", &t.pass, reference, true);
    }
    for p in &recorder_offs {
        verdict.add("recorder-off", p, reference, false);
    }
    if let Some(p) = &parallel {
        verdict.add("parallel", p, reference, true);
    }

    let plain_wall = median_of(&plains, |p| secs(p.wall_ns));
    let traced_wall = median_of(&traced, |t| secs(t.pass.wall_ns));
    let recons: Vec<Reconciliation> = traced
        .iter()
        .map(|t| Reconciliation::new(t, &probes))
        .collect();
    let mid = {
        let mut order: Vec<usize> = (0..traced.len()).collect();
        order.sort_by_key(|&i| traced[i].pass.wall_ns);
        order[order.len() / 2]
    };
    let trace_overhead_pct = 100.0 * ratio(traced_wall - plain_wall, plain_wall);
    print_reconciliation(&recons[mid], &traced[mid], plain_wall, trace_overhead_pct);

    let mut total = Probe::default();
    for p in &probes {
        total.add(p);
    }
    let med = |f: &dyn Fn(&TracedPass, &Reconciliation) -> f64| {
        median(
            &traced
                .iter()
                .zip(&recons)
                .map(|(t, r)| f(t, r))
                .collect::<Vec<_>>(),
        )
    };
    let setup_med = |f: fn(&SetupTimes) -> u64| median_of(&setups, |s| f(s) as f64 * 1e-6);
    let mut m: Vec<(String, f64, &'static str)> = vec![
        (
            "workloads.generate_ms".into(),
            setup_med(|s| s.generate_ns),
            "ms",
        ),
        (
            "slicer.instrument_ms".into(),
            setup_med(|s| s.instrument_ns),
            "ms",
        ),
        ("slicer.slices".into(), setups[0].slices as f64, "count"),
        (
            "isa.interp_ns_per_instr".into(),
            ratio(total.interp_ns as f64, total.interp_instrs as f64),
            "ns",
        ),
        ("sim.ns_per_cycle".into(), total.ns_per_cycle(), "ns"),
        ("sim.ns_per_instr".into(), total.ns_per_instr(), "ns"),
        ("sim.retired".into(), total.retired as f64, "count"),
        ("sim.stores".into(), total.stores as f64, "count"),
        ("sim.assocs".into(), total.assocs as f64, "count"),
        (
            "mem.store_ns".into(),
            ratio(total.replay_ns as f64, total.replayed_stores as f64),
            "ns",
        ),
        (
            "mem.l1d_miss_ratio".into(),
            ratio(total.mem.l1d_misses as f64, total.mem.l1d_accesses() as f64),
            "ratio",
        ),
        (
            "mem.coherence_msgs".into(),
            total.mem.coherence_messages as f64,
            "count",
        ),
    ];
    for (i, seam) in SEAMS.iter().enumerate() {
        m.push((
            format!("core.{seam}.calls"),
            med(&|t, _| t.tally.calls[i] as f64),
            "count",
        ));
        m.push((
            format!("core.{seam}.ns"),
            med(&|t, _| ratio(t.tally.ns[i] as f64, t.tally.calls[i] as f64)),
            "ns",
        ));
    }
    m.extend([
        (
            "core.omit_ratio".into(),
            med(&|t, _| ratio(t.tally.omitted as f64, t.tally.calls[TRY_OMIT] as f64)),
            "ratio",
        ),
        (
            "ckpt.case_ms".into(),
            med(&|t, _| ratio(t.tally.engine_ns as f64 * 1e-6, t.tally.engine_runs as f64)),
            "ms",
        ),
        (
            "ckpt.cases".into(),
            med(&|t, _| t.tally.engine_runs as f64),
            "count",
        ),
        (
            "ckpt.recoveries".into(),
            reference.recoveries as f64,
            "count",
        ),
        (
            "ckpt.restored_records".into(),
            reference.restored_records as f64,
            "count",
        ),
        (
            "ckpt.recomputed_values".into(),
            reference.recomputed_values as f64,
            "count",
        ),
        (
            "ckpt.engine_self_ms".into(),
            med(&|_, r| r.engine_self * 1e3),
            "ms",
        ),
        (
            "ckpt.shrink.evaluations".into(),
            reference.shrink_evaluations as f64,
            "count",
        ),
        (
            "ckpt.shrink.ms_per_eval".into(),
            med(&|t, _| {
                ratio(
                    t.pass.shrink_ns as f64 * 1e-6,
                    t.pass.shrink_evaluations as f64,
                )
            }),
            "ms",
        ),
        (
            "ckpt.postmortem_ms".into(),
            med(&|t, _| t.pass.postmortem_ns as f64 * 1e-6),
            "ms",
        ),
        (
            "trace.recorder_overhead_pct".into(),
            if recorder_offs.is_empty() {
                0.0
            } else {
                let off = median_of(&recorder_offs, |p| secs(p.wall_ns));
                100.0 * ratio(plain_wall - off, off)
            },
            "%",
        ),
        (
            "ckpt.parallel.speedup".into(),
            parallel
                .as_ref()
                .map_or(0.0, |par| ratio(plain_wall, secs(par.wall_ns))),
            "x",
        ),
        ("residual_pct".into(), med(&|_, r| r.residual_pct()), "%"),
        ("trace_overhead_pct".into(), trace_overhead_pct, "%"),
    ]);
    println!(
        "  {} untraced + {} traced + {} recorder-off pass(es), jobs {jobs} for the parallel \
         pass, {:.1} s total",
        plains.len(),
        traced.len(),
        recorder_offs.len(),
        start.elapsed().as_secs_f64()
    );
    for (name, v, unit) in &m {
        println!("  {name:<28} {v:>16.4} {unit}");
    }
    Ok(verdict.finish(m))
}

fn print_reconciliation(r: &Reconciliation, t: &TracedPass, plain_wall: f64, overhead_pct: f64) {
    let calls: u64 = t.tally.calls.iter().sum();
    println!("  reconciliation of the median traced pass (host seconds):");
    let row = |layer: &str, basis: String, s: f64| {
        println!("    {layer:<18} {basis:<44} {s:>9.4}");
    };
    row(
        "isa interp",
        "probe ns/instr x interpreter runs".into(),
        r.interp,
    );
    row(
        "sim baseline",
        "probe run x fault-free runs".into(),
        r.sim_outside,
    );
    row(
        "sim in engine",
        "probe ns/instr x engine instructions".into(),
        r.sim_engine,
    );
    row("core policy", format!("measured, {calls} calls"), r.core);
    row(
        "ckpt engine self",
        format!("{} engine runs minus sim and core", t.tally.engine_runs),
        r.engine_self,
    );
    row(
        "ckpt postmortem",
        "measured JSON serialisation".into(),
        r.postmortem,
    );
    row("sum of layers", String::new(), r.explained());
    row("traced wall", String::new(), r.wall);
    row(
        "residual",
        format!("{:.2}% of traced wall", r.residual_pct()),
        r.wall - r.explained(),
    );
    row(
        "untraced wall",
        format!("trace overhead {overhead_pct:+.2}%"),
        plain_wall,
    );
}

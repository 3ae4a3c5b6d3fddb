//! End-to-end campaign benchmark for tdfm.
//!
//! ```text
//! campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--record <path>]
//! campaign_bench compare <record-a.json> <record-b.json>
//! campaign_bench reference > reference.json
//! ```
//!
//! `--trace 0` times whole campaigns, each from a fresh runner, until about
//! `--seconds` have passed, and reports the end-to-end metrics as medians.
//! `--trace 1` runs untraced/obs-timed campaign pairs, then replays the
//! campaign layer by layer with spans and reports the per-layer metrics.
//! The thread budget is the program's own (`TDFM_THREADS`, else `nproc`).
//! Either way the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod check;
mod replay;
mod spans;
mod stats;
mod sys;
mod workload;

use check::{Gate, Report, REFERENCE_SEED};
use stats::{median, quartiles};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use tdfm_json::{json_struct, Number, Value};
use tdfm_obs::ObsConfig;
use workload::{prepare, run_campaign, Campaign, Engine, Prepared, Workload, GLOBAL_HISTOGRAMS};

/// Timed campaigns per untraced run, at least.
const MIN_CAMPAIGNS: usize = 3;
/// Set-up-only processes run before each campaign process, so that
/// `setup_s` is a median of many cold set-ups.
const SETUPS_PER_CAMPAIGN: usize = 4;

/// Layers the replay's spans are named after (`survey` and `lint` are off
/// the campaign path).
const LAYERS: [&str; 5] = ["core", "data", "inject", "json", "nn"];

/// The end-to-end metrics, in `BENCHMARK.json` order: (name, unit).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("cpu_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
    /// Set when this process is one the benchmark started.
    child: Option<Child>,
}

/// What a process the benchmark started does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Child {
    /// Set up, run one campaign and print its [`Sample`].
    Campaign,
    /// Set up and print the set-up seconds.
    SetUp,
}

impl Child {
    fn flag(self) -> &'static str {
        match self {
            Child::Campaign => "campaign",
            Child::SetUp => "setup",
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = None;
    let mut child = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--record" => record = Some(PathBuf::from(value)),
            "--child" => {
                child = Some(
                    [Child::Campaign, Child::SetUp]
                        .into_iter()
                        .find(|c| c.flag() == value)
                        .ok_or_else(|| bad("expected campaign or setup"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        record,
        child,
    })
}

/// The program's resolved thread budget.
fn threads() -> usize {
    tdfm_tensor::parallel::num_threads()
}

fn num(v: f64) -> Value {
    Value::Num(Number::F64(v))
}

/// Provenance stamped on every record.
fn provenance(args: &Args) -> Vec<(String, Value)> {
    let s = |v: &str| Value::Str(v.to_string());
    vec![
        ("workload".into(), s(args.workload.name())),
        ("simd".into(), s(tdfm_tensor::simd::simd_name())),
        ("threads".into(), Value::Num(Number::UInt(threads() as u64))),
        (
            "nproc".into(),
            Value::Num(Number::UInt(sys::nproc() as u64)),
        ),
        ("scale".into(), s(args.workload.scale().name())),
        ("seed".into(), Value::Num(Number::UInt(args.seed))),
        ("op".into(), s(args.workload.op())),
        ("trace".into(), Value::Bool(args.trace)),
    ]
}

/// A metric as printed: name, unit, value and the samples behind it.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric {
            name: name.into(),
            unit,
            value: median(&samples),
            samples,
        }
    }

    fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self::new(name, unit, vec![value])
    }

    fn describe(&self) -> String {
        let n = self.samples.len();
        let spread = if n >= 2 {
            let (q1, q3) = quartiles(&self.samples);
            format!(", q1 {q1:.6}, q3 {q3:.6}")
        } else {
            String::new()
        };
        format!(
            "{:<34} {:>16.6} {:<6} (median of n={n}{spread})",
            self.name, self.value, self.unit
        )
    }
}

/// One campaign run in a process of its own, as that process reports it.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    /// Seconds from process start to the start of the campaign.
    setup_s: f64,
    /// Wall seconds of the campaign.
    wall_s: f64,
    /// User + kernel CPU seconds of the campaign.
    cpu_s: f64,
    /// Kernel-mode CPU seconds of the campaign.
    sys_s: f64,
    /// `VmHWM` of the process when the campaign ended.
    peak_rss_bytes: u64,
    /// The campaign's own checks.
    report: Report,
}

json_struct!(Sample {
    setup_s,
    wall_s,
    cpu_s,
    sys_s,
    peak_rss_bytes,
    report
});

fn main() -> ExitCode {
    let started = sys::clock();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => return compare(&argv[1..]),
        Some("reference") => return print_reference(),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            sys::complain(&e);
            sys::complain("usage: campaign_bench --workload <datafault_grid|seu_exhaustive|sharded_byzantine> --seed <n> --seconds <s> --trace <0|1> [--record <path>]");
            return ExitCode::from(2);
        }
    };
    if let Some(child) = args.child {
        return run_child(&args, child, started);
    }
    let prepared = prepare(args.workload, args.seed);

    println!(
        "campaign_bench {} seed={} threads={} simd={} op=\"{}\" ops/campaign={}",
        args.workload.name(),
        args.seed,
        threads(),
        tdfm_tensor::simd::simd_name(),
        args.workload.op(),
        prepared.ops()
    );
    let mut gate = Gate::new(&prepared);
    let metrics = if args.trace {
        traced(&args, &prepared, &mut gate)
    } else {
        match timed(&args, &prepared, &mut gate) {
            Ok(metrics) => metrics,
            Err(e) => {
                gate.print();
                sys::complain(&e);
                return ExitCode::from(1);
            }
        }
    };
    gate.print();
    for m in &metrics {
        println!("{}", m.describe());
    }

    let metric_values: Vec<(String, Value)> = metrics
        .iter()
        .map(|m| {
            let v = Value::Object(vec![
                ("value".into(), num(m.value)),
                ("unit".into(), Value::Str(m.unit.to_string())),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    if let Some(path) = &args.record {
        let record = Value::Object(vec![
            ("provenance".into(), Value::Object(provenance(&args))),
            ("metrics".into(), Value::Object(metric_values.clone())),
        ]);
        if let Err(e) = std::fs::write(path, tdfm_json::to_string_pretty(&record)) {
            sys::complain(&format!("cannot write record {}: {e}", path.display()));
        }
    }
    println!(
        "provenance {}",
        tdfm_json::to_string(&Value::Object(provenance(&args)))
    );
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(gate.correct())),
        ("attempted".into(), Value::Num(Number::UInt(gate.attempted))),
        ("failed".into(), Value::Num(Number::UInt(gate.failed))),
        ("metrics".into(), Value::Object(metric_values)),
    ]);
    println!("{}", tdfm_json::to_string(&result));
    if gate.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A process the benchmark started. Set-up, timed from process start, is
/// what a fresh process does before its campaign: generate the configs,
/// build the runner and resolve the SIMD level and thread budget. A
/// campaign process then runs the campaign; only after it does the
/// process derive what the gate checks. Prints the set-up seconds or the
/// [`Sample`] as the last line.
fn run_child(args: &Args, child: Child, started: std::time::Instant) -> ExitCode {
    let spec = workload::spec(args.workload, args.seed);
    let engine = Engine::fresh(&spec);
    std::hint::black_box((tdfm_tensor::simd::simd_name(), threads()));
    let setup_s = started.elapsed().as_secs_f64();
    if child == Child::SetUp {
        println!("{setup_s}");
        return ExitCode::SUCCESS;
    }
    let c = run_campaign(engine, &spec);
    let prepared = prepare(args.workload, args.seed);
    let sample = Sample {
        setup_s,
        wall_s: c.wall_s,
        cpu_s: c.cpu.total_s(),
        sys_s: c.cpu.sys_s,
        peak_rss_bytes: c.peak_rss_bytes,
        report: check::report(&c, &prepared),
    };
    println!("{}", tdfm_json::to_string(&sample));
    ExitCode::SUCCESS
}

/// Runs a fresh process of this program in `child` mode, waits for it and
/// returns the last line it printed.
fn spawn(args: &Args, child: Child) -> Result<String, String> {
    let what = child.flag();
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--child", what])
        .output()
        .map_err(|e| format!("cannot run a {what} process: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(3).collect();
        return Err(format!("{what} process failed ({}): {tail:?}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Ok(stdout.lines().last().unwrap_or_default().to_string())
}

/// Runs one campaign in a fresh process of this program.
fn spawn_campaign(args: &Args) -> Result<Sample, String> {
    let last = spawn(args, Child::Campaign)?;
    tdfm_json::from_str(&last).map_err(|e| format!("campaign process output: {e}"))
}

/// Sets up in a fresh process of this program; its set-up seconds.
fn spawn_setup(args: &Args) -> Result<f64, String> {
    let last = spawn(args, Child::SetUp)?;
    last.parse()
        .map_err(|_| format!("set-up process output: {last:?}"))
}

/// Untraced run: whole campaigns, each in a fresh process, until the next
/// would end after `--seconds`. A fresh process per campaign makes each
/// sample's set-up a cold set-up from process start and each `VmHWM` the
/// peak of one campaign, not of the heap earlier campaigns left behind.
/// Each campaign process is preceded by [`SETUPS_PER_CAMPAIGN`] set-up-only
/// processes, whose cold set-ups join the campaigns' in `setup_s`. Fails
/// when a set-up process fails or no campaign process produced a sample.
fn timed(args: &Args, prepared: &Prepared, gate: &mut Gate<'_>) -> Result<Vec<Metric>, String> {
    let loop_start = sys::clock();
    let mut samples: Vec<Sample> = Vec::new();
    let mut setups = Vec::new();
    let mut spans = Vec::new();
    loop {
        let t = sys::clock();
        for _ in 0..SETUPS_PER_CAMPAIGN {
            setups.push(spawn_setup(args)?);
        }
        match spawn_campaign(args) {
            Ok(s) => {
                gate.admit(&s.report);
                samples.push(s);
            }
            Err(e) => gate.admit_lost(&e),
        }
        spans.push(t.elapsed().as_secs_f64());
        let next_ends = loop_start.elapsed().as_secs_f64() + median(&spans);
        if spans.len() >= MIN_CAMPAIGNS && next_ends > args.seconds {
            break;
        }
    }
    if samples.is_empty() {
        return Err("no campaign process produced a sample".to_string());
    }
    if let Some(reference) = gate.reference() {
        println!("results digest {}", check::campaign_digest(reference));
    }
    let each = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let ops = prepared.ops();
    setups.extend(each(&|s| s.setup_s));
    let metrics = vec![
        Metric::new("setup_s", "s", setups),
        Metric::new("campaign_s", "s", each(&|s| s.wall_s)),
        Metric::new("cpu_s", "s", each(&|s| s.cpu_s)),
        Metric::new(
            "ops_per_s",
            "1/s",
            each(&|s| stats::ops_per_s(ops, s.wall_s)),
        ),
        Metric::new(
            "peak_rss_mb",
            "MiB",
            each(&|s| s.peak_rss_bytes as f64 / (1u64 << 20) as f64),
        ),
    ];
    assert!(metrics
        .iter()
        .map(|m| m.name.as_str())
        .eq(END_TO_END.iter().map(|e| e.0)));
    // Not in the result line, but always printed: kernel-mode CPU.
    println!(
        "{}",
        Metric::new("process.sys_s", "s", each(&|s| s.sys_s)).describe()
    );
    Ok(metrics)
}

fn set_timing(on: bool) {
    tdfm_obs::configure(ObsConfig {
        timing: on,
        ..ObsConfig::default()
    })
    .expect("configuring obs without a trace file cannot fail");
}

/// One campaign from a fresh runner with obs timing `on` or off, admitted
/// to the gate.
fn checked_campaign(prepared: &Prepared, gate: &mut Gate<'_>, on: bool) -> Campaign {
    set_timing(on);
    let c = run_campaign(Engine::fresh(&prepared.spec), &prepared.spec);
    set_timing(false);
    gate.admit(&check::report(&c, prepared));
    c
}

/// Traced run: untraced/timed campaign pairs, then the layer-by-layer
/// replay. The pairs alternate which side runs first, so an order effect
/// within a pair does not land in `obs.timing_overhead_s`.
fn traced(args: &Args, prepared: &Prepared, gate: &mut Gate<'_>) -> Vec<Metric> {
    let loop_start = sys::clock();
    let mut off: Vec<Campaign> = Vec::new();
    let mut on: Vec<Campaign> = Vec::new();
    loop {
        if off.len().is_multiple_of(2) {
            off.push(checked_campaign(prepared, gate, false));
            on.push(checked_campaign(prepared, gate, true));
        } else {
            on.push(checked_campaign(prepared, gate, true));
            off.push(checked_campaign(prepared, gate, false));
        }
        // Only the last timed campaign's output is serialised.
        for c in on.iter_mut().rev().skip(1).chain(off.iter_mut()) {
            c.output = None;
        }
        let walls: Vec<f64> = on.iter().map(|c| c.wall_s).collect();
        // Room for another pair and the replay?
        let next_ends = loop_start.elapsed().as_secs_f64() + 3.0 * median(&walls);
        if next_ends > args.seconds {
            break;
        }
    }

    set_timing(true);
    let rec = spans::Recorder::new();
    let counts = replay::Counts::default();
    let last_on = on.last().and_then(|c| c.output.as_ref());
    let (replayed, json_bytes) = rec.span("campaign", || {
        let replayed = replay::replay(&prepared.spec, threads(), &rec, &counts);
        let bytes = last_on.map_or(0, |(engine, results)| {
            rec.span("json.serialize", || {
                let cells: usize = results.cells().iter().map(|c| c.json.len()).sum();
                cells + engine.manifest_json(args.workload.name(), results).len()
            })
        });
        (replayed, bytes)
    });
    set_timing(false);
    let replayed_cells = replayed.cells();
    let replayed_digests: Vec<String> = replayed_cells
        .iter()
        .map(|c| check::digest(&c.json))
        .collect();
    gate.admit_replay(&replayed_digests);
    let spans = rec.finish();
    write_spans(args, &spans);
    layer_metrics(prepared, &off, &on, &spans, &counts, json_bytes)
}

fn write_spans(args: &Args, spans: &[spans::SpanRecord]) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans::to_jsonl(spans)));
    match written {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => sys::complain(&format!("cannot write spans to {}: {e}", path.display())),
    }
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    prepared: &Prepared,
    off: &[Campaign],
    on: &[Campaign],
    spans: &[spans::SpanRecord],
    counts: &replay::Counts,
    json_bytes: usize,
) -> Vec<Metric> {
    let wall_off = median(&off.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    let cpu_off = median(&off.iter().map(|c| c.cpu.total_s()).collect::<Vec<_>>());
    let sys_off = median(&off.iter().map(|c| c.cpu.sys_s).collect::<Vec<_>>());
    let overhead: Vec<f64> = on
        .iter()
        .zip(off)
        .map(|(a, b)| a.wall_s - b.wall_s)
        .collect();
    // Counters are deterministic: any untraced campaign gives them.
    let runner = |name: &str| off[0].counters.counter(name).unwrap_or(0) as f64;
    let global = |name: &str| off[0].tally.counter(name) as f64;
    let kernel = |name: &str| on[0].tally.histogram(name);

    let by_name = spans::by_name(spans);
    let span_s = |name: &str| {
        by_name
            .iter()
            .filter(|(n, _, _)| n == name)
            .fold(0.0, |acc, (_, s, _)| acc + s)
    };
    let span_n = |name: &str| {
        by_name
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, _, k)| *k)
            .sum::<u64>() as f64
    };
    let root = spans
        .iter()
        .find(|s| s.parent.is_none() && s.name == "campaign");
    let covered_s: f64 = root.map_or(0.0, |r| {
        spans
            .iter()
            .filter(|s| s.parent == Some(r.id))
            .fold(0.0, |acc, s| acc + s.duration_ns() as f64 * 1e-9)
    });

    let lookups = runner("golden_lookups");
    let mut m = vec![
        Metric::single("data.generate_s", "s", span_s("data.generate")),
        Metric::single("data.generate_calls", "count", span_n("data.generate")),
        Metric::single("inject.apply_s", "s", span_s("inject.apply")),
        Metric::single("inject.weight_flip_s", "s", span_s("inject.weight_flip")),
        Metric::single(
            "inject.weight_flips",
            "count",
            counts.weight_flips.load(Ordering::Relaxed) as f64,
        ),
        Metric::single("inject.shard_apply_s", "s", span_s("inject.shard_apply")),
        Metric::single("nn.predict_s", "s", span_s("nn.predict")),
        Metric::single(
            "nn.predict_images",
            "count",
            counts.predict_images.load(Ordering::Relaxed) as f64,
        ),
        Metric::single("nn.batches_trained", "count", global("batches_trained")),
        Metric::single(
            "nn.grad_clip_activations",
            "count",
            global("grad_clip_activations"),
        ),
    ];
    let mut kernel_s = 0.0;
    for op in GLOBAL_HISTOGRAMS
        .iter()
        .filter_map(|h| h.strip_prefix("op."))
    {
        let (calls, secs) = kernel(&format!("op.{op}"));
        kernel_s += secs;
        m.push(Metric::single(format!("tensor.op.{op}_s"), "s", secs));
        m.push(Metric::single(
            format!("tensor.op.{op}.calls"),
            "count",
            calls as f64,
        ));
    }
    m.push(Metric::single(
        "tensor.kernel_share",
        "ratio",
        stats::share(kernel_s, cpu_off),
    ));
    for t in tdfm_core::TechniqueKind::ALL {
        let a = t.abbrev();
        m.push(Metric::single(
            format!("core.technique_fit_s.{a}"),
            "s",
            span_s(&format!("core.fit.{a}")),
        ));
    }
    m.extend([
        Metric::single("core.golden_fit_s", "s", span_s("core.golden_fit")),
        Metric::single("core.golden_lookups", "count", lookups),
        Metric::single("core.golden_trainings", "count", runner("golden_trainings")),
        Metric::single(
            "core.golden_hit_ratio",
            "ratio",
            stats::share(lookups - runner("golden_trainings"), lookups),
        ),
        Metric::single("core.technique_fits", "count", runner("technique_fits")),
        Metric::single(
            "core.shared_fit_ratio",
            "ratio",
            stats::share(lookups - runner("technique_fits"), lookups),
        ),
        Metric::single(
            "core.worker_idle_s",
            "s",
            stats::worker_idle_s(threads(), wall_off, cpu_off),
        ),
        Metric::single("core.weight_trials", "count", runner("weight_trials")),
        Metric::single(
            "core.activation_trials",
            "count",
            runner("activation_trials"),
        ),
        Metric::single("core.sharded_fits", "count", runner("sharded_fits")),
        Metric::single("core.fit_sharded_s", "s", span_s("core.fit_sharded")),
    ]);
    for agg in tdfm_core::AggregatorKind::standard_set() {
        let label = replay::aggregator_label(agg);
        m.push(Metric::single(
            format!("core.aggregate_s.{label}"),
            "s",
            span_s(&format!("core.aggregate.{label}")),
        ));
    }
    m.extend([
        Metric::single(
            "core.shard_worker_s",
            "s",
            off[0].tally.histogram("shard_worker_seconds").1,
        ),
        Metric::single("core.aggregator_trims", "count", global("aggregator_trims")),
        Metric::single(
            "core.shard_worker_drops",
            "count",
            global("shard_worker_drops"),
        ),
        Metric::single("core.localize_s", "s", span_s("core.localize")),
        Metric::single("core.metrics_s", "s", span_s("core.metrics")),
        Metric::new("obs.timing_overhead_s", "s", overhead),
        Metric::single("json.serialize_s", "s", span_s("json.serialize")),
        Metric::single("json.bytes", "bytes", json_bytes as f64),
        Metric::single("process.sys_s", "s", sys_off),
        Metric::single(
            "trace.span_cpu_share",
            "ratio",
            stats::share(covered_s, cpu_off),
        ),
    ]);
    let layers = spans::by_layer(spans);
    for layer in LAYERS {
        let secs = layers
            .iter()
            .find(|(l, _)| l == layer)
            .map_or(0.0, |(_, s)| *s);
        m.push(Metric::single(format!("self_s.{layer}"), "s", secs));
    }
    println!(
        "untraced campaign: wall {wall_off:.3} s, cpu {cpu_off:.3} s (sys {sys_off:.3} s) over {} pair(s); ops {}",
        off.len(),
        prepared.ops()
    );
    m
}

/// Runs one campaign of every workload at the reference seed and prints
/// the `reference.json` that records their per-cell digests. Results are
/// byte-identical across thread counts and SIMD levels, so any machine
/// produces the same file.
fn print_reference() -> ExitCode {
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let prepared = prepare(w, REFERENCE_SEED);
        let campaign = run_campaign(Engine::fresh(&prepared.spec), &prepared.spec);
        let report = check::report(&campaign, &prepared);
        if !report.faults.is_empty() {
            sys::complain(&format!(
                "reference: {} failed: {:?}",
                w.name(),
                report.faults
            ));
            return ExitCode::from(1);
        }
        let digests = report.digests;
        let entry = Value::Object(vec![
            (
                "digest".into(),
                Value::Str(check::campaign_digest(&digests)),
            ),
            (
                "cells".into(),
                Value::Array(digests.into_iter().map(Value::Str).collect()),
            ),
        ]);
        workloads.push((w.name().to_string(), entry));
    }
    let doc = Value::Object(vec![
        ("seed".into(), Value::Num(Number::UInt(REFERENCE_SEED))),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    println!("{}", tdfm_json::to_string_pretty(&doc));
    ExitCode::SUCCESS
}

/// Compares two `--record` files metric by metric, refusing records whose
/// SIMD level or thread count differ: their timings do not measure the
/// same thing.
fn compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        sys::complain("usage: campaign_bench compare <record-a.json> <record-b.json>");
        return ExitCode::from(2);
    };
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        tdfm_json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            sys::complain(&format!("compare: {e}"));
            return ExitCode::from(2);
        }
    };
    match compare_records(&ra, &rb) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            sys::complain(&format!("compare: {e}"));
            ExitCode::from(1)
        }
    }
}

/// Per-metric `b / a` lines, or why the records are not comparable.
fn compare_records(a: &Value, b: &Value) -> Result<Vec<String>, String> {
    for key in ["simd", "threads", "workload", "trace"] {
        let va = a.get("provenance").and_then(|p| p.get(key));
        let vb = b.get("provenance").and_then(|p| p.get(key));
        if va.is_none() || va != vb {
            return Err(format!(
                "records differ in {key} ({va:?} vs {vb:?}); refusing to compare"
            ));
        }
    }
    let metrics = |r: &Value| {
        r.get("metrics")
            .and_then(Value::as_object)
            .map(<[_]>::to_vec)
    };
    let (ma, mb) = (
        metrics(a).ok_or("record a has no metrics")?,
        metrics(b).ok_or("record b has no metrics")?,
    );
    Ok(ma
        .iter()
        .filter_map(|(name, va)| {
            let x = va.get("value")?.as_f64()?;
            let y = mb
                .iter()
                .find(|(n, _)| n == name)?
                .1
                .get("value")?
                .as_f64()?;
            let ratio = if x != 0.0 {
                format!("{:.4}x", y / x)
            } else {
                "-".to_string()
            };
            Some(format!("{name:<34} {x:>14.6} -> {y:>14.6}  {ratio}"))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "seu_exhaustive",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::SeuExhaustive);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "seu_exhaustive",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "seu_exhaustive",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "seu_exhaustive"]).is_err());
        let base = [
            "--workload",
            "seu_exhaustive",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ];
        assert_eq!(a.child, None);
        let with = |extra: [&str; 2]| args(&[&base[..], &extra[..]].concat());
        assert_eq!(
            with(["--child", "setup"]).unwrap().child,
            Some(Child::SetUp)
        );
        assert_eq!(
            with(["--child", "campaign"]).unwrap().child,
            Some(Child::Campaign)
        );
        assert!(with(["--child", "1"]).is_err());
        // The thread budget is the program's own, not a flag.
        assert!(with(["--threads", "1"]).is_err());
    }

    fn record(simd: &str, threads: u64, value: f64) -> Value {
        let s = |v: &str| Value::Str(v.to_string());
        Value::Object(vec![
            (
                "provenance".into(),
                Value::Object(vec![
                    ("workload".into(), s("datafault_grid")),
                    ("simd".into(), s(simd)),
                    ("threads".into(), Value::Num(Number::UInt(threads))),
                    ("trace".into(), Value::Bool(false)),
                ]),
            ),
            (
                "metrics".into(),
                Value::Object(vec![(
                    "campaign_s".into(),
                    Value::Object(vec![("value".into(), num(value)), ("unit".into(), s("s"))]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_refuses_other_simd_or_threads() {
        let base = record("avx2", 2, 4.0);
        let lines = compare_records(&base, &record("avx2", 2, 3.0)).unwrap();
        assert!(lines[0].contains("0.7500x"), "{lines:?}");
        assert!(compare_records(&base, &record("scalar", 2, 3.0))
            .unwrap_err()
            .contains("simd"));
        assert!(compare_records(&base, &record("avx2", 1, 3.0))
            .unwrap_err()
            .contains("threads"));
    }

    fn campaign(wall_s: f64) -> Campaign {
        Campaign {
            wall_s,
            cpu: sys::CpuTimes::default(),
            peak_rss_bytes: 1,
            cells: Vec::new(),
            counters: tdfm_obs::MetricsSnapshot::default(),
            tally: workload::Tally::read(),
            panicked: false,
            output: None,
        }
    }

    /// Every metric `BENCHMARK.json` names is one the benchmark reports,
    /// in the same order.
    #[test]
    fn benchmark_json_names_match() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = tdfm_json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names("workloads"), workloads);

        let a = args(&[
            "--workload",
            "sharded_byzantine",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .unwrap();
        let prepared = prepare(a.workload, a.seed);
        let counts = replay::Counts::default();
        let produced = layer_metrics(
            &prepared,
            &[campaign(2.0)],
            &[campaign(2.1)],
            &[],
            &counts,
            0,
        );
        let produced: Vec<String> = produced.into_iter().map(|m| m.name).collect();
        assert_eq!(names("per_layer"), produced);
    }
}

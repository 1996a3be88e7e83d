//! Traced replay and set-up timing for the `mbaa` end-to-end benchmark.
//!
//! `perfbench/run.py` drives the release `mbaa` binary for the end-to-end
//! numbers. This program reaches the same work through each layer's public
//! functions, so the benchmark can say where the time goes. It has two
//! subcommands, and each prints one JSON object on stdout:
//!
//! ```text
//! perfbench-trace setup --scenario <file>
//! perfbench-trace trace --scenario <file> --dir <scratch dir>
//!                       --report <`mbaa run --out` report>
//!                       --metrics <`mbaa run --metrics-out` document>
//!                       --workers <n> --seconds <s>
//!                       [--expect-path fast|shared] [--min-occupancy <x>]
//! ```
//!
//! `setup` times the work `mbaa sweep` does before its first chunk runs:
//! `ScenarioFile::parse_str`, `SweepPlan::new` and the rendering of the
//! checkpoint manifest. It times a few batches of set-ups, each at least
//! 10 ms long, and reports the median time per set-up.
//!
//! `trace` replays the sweep in `mbaa sweep` then `mbaa merge` order and
//! times every call into the `json`, `cli`, `facade`, `sim`, `net` and
//! `core` layers. It lowers each chunk into the lanes and packs the sim
//! executor builds and runs every pack on this thread twice: untraced, and
//! with the `PhaseProfiler` attached. It then checks that
//! - every replayed summary equals the report's, bit for bit;
//! - the pack plan matches `mean_pack_occupancy`;
//! - the re-rendered report equals the CLI's, byte for byte;
//! - the metrics document counts the rounds the report holds;
//! - every lane took the expected execution path.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use mbaa::core::{shape_compatible, BatchEngine, PackedLane};
use mbaa::net::SharedRealization;
use mbaa::obs::timing::PhaseProfiler;
use mbaa::sim::{mean_pack_occupancy, BATCH_WIDTH};
use mbaa::{
    ExperimentConfig, MobileRunOutcome, Observe, Phase, ProtocolConfig, RunSummary, Topology,
    TopologySchedule, Value,
};
use mbaa_cli::checkpoint::{self, SweepPlan, DEFAULT_CHUNK_SIZE};
use mbaa_cli::report::{report_json, ReportPoint};
use mbaa_json::{parse, write_string, Ctx, ScenarioFile};

type Outcome<T> = Result<T, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("setup") => Opts::parse(&args[1..]).and_then(|opts| setup(&opts)),
        Some("trace") => Opts::parse(&args[1..]).and_then(|opts| trace(&opts)),
        _ => Err("usage: perfbench-trace setup|trace --scenario <file> --dir <dir> ...".into()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench-trace: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` pairs.
struct Opts(BTreeMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Outcome<Opts> {
        let mut map = BTreeMap::new();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Opts(map))
    }

    fn opt(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn get(&self, key: &str) -> Outcome<&str> {
        self.opt(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Outcome<T> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("--{key} wants a number"))
    }
}

fn read(path: &Path) -> Outcome<String> {
    fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn remove_dir(path: &Path) -> Outcome<()> {
    match fs::remove_dir_all(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("{}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

// ---------------------------------------------------------------------------
// setup
// ---------------------------------------------------------------------------

/// Set-ups are timed in batches of at least this much set-up time, so one
/// batch spans many scheduler ticks and a single preemption barely moves it.
const SETUP_BATCH_S: f64 = 0.01;
/// Batches timed per call. `run.py` calls `setup` three times per cycle,
/// so the samples spread over the run rather than pile up in one call.
const SETUP_BATCHES: usize = 3;

fn setup(opts: &Opts) -> Outcome<String> {
    let text = read(Path::new(opts.get("scenario")?))?;
    let mut size = 1;
    while setup_batch(&text, size)? < SETUP_BATCH_S {
        size *= 2;
    }
    let mut samples = Vec::with_capacity(SETUP_BATCHES);
    for _ in 0..SETUP_BATCHES {
        samples.push(setup_batch(&text, size)? / size as f64);
    }
    Ok(format!(
        "{{\"setup_s\": {}, \"batch\": {size}}}",
        median(samples)
    ))
}

/// Seconds taken by `size` set-ups: parse the scenario, plan the sweep and
/// render the manifest `checkpoint::ensure_manifest` writes.
///
/// The write itself is left out; the traced run times it in `cli.plan_s`.
/// On a shared disk it flipped between two speeds from one second to the
/// next on unchanged code, which moved the whole set-up time by 2x.
fn setup_batch(text: &str, size: usize) -> Outcome<f64> {
    let start = Instant::now();
    for _ in 0..size {
        let doc = ScenarioFile::parse_str(black_box(text)).map_err(|e| e.to_string())?;
        let plan = SweepPlan::new(&doc, DEFAULT_CHUNK_SIZE);
        black_box(write_string(&plan.manifest_json()));
    }
    Ok(secs(start))
}

// ---------------------------------------------------------------------------
// trace: checks
// ---------------------------------------------------------------------------

/// The report's summaries, keyed by `(point index, seed)`.
type Expected = BTreeMap<(usize, u64), RunSummary>;

/// Self-check results: every replayed run, the runs that disagreed with
/// the report, and every other broken expectation.
#[derive(Default)]
struct Checks {
    runs: u64,
    failed_runs: u64,
    problems: Vec<String>,
}

impl Checks {
    /// Keeps the first few messages; the counts carry the rest.
    fn problem(&mut self, message: String) {
        if self.problems.len() < 16 {
            self.problems.push(message);
        }
    }

    fn require(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.problem(message());
        }
    }

    /// Checks one replayed run against the report.
    fn run(
        &mut self,
        site: &str,
        point: usize,
        seed: u64,
        got: Result<RunSummary, String>,
        expected: &Expected,
    ) {
        self.runs += 1;
        let verdict = match (got, expected.get(&(point, seed))) {
            (Err(e), _) => Err(e),
            (Ok(_), None) => Err("missing from the report".to_string()),
            (Ok(got), Some(want)) if same_bits(&got, want) => Ok(()),
            (Ok(got), Some(want)) => Err(format!("replayed {got:?}, report has {want:?}")),
        };
        if let Err(e) = verdict {
            self.failed_runs += 1;
            self.problem(format!("{site}: point {point}, seed {seed}: {e}"));
        }
    }
}

/// Field-for-field equality with floats compared as bits.
fn same_bits(a: &RunSummary, b: &RunSummary) -> bool {
    a.seed == b.seed
        && a.reached_agreement == b.reached_agreement
        && a.validity == b.validity
        && a.rounds == b.rounds
        && a.final_diameter.to_bits() == b.final_diameter.to_bits()
        && a.initial_diameter.to_bits() == b.initial_diameter.to_bits()
        && a.mean_contraction.map(f64::to_bits) == b.mean_contraction.map(f64::to_bits)
}

fn summary_of(seed: u64, outcome: mbaa::Result<MobileRunOutcome>) -> Result<RunSummary, String> {
    outcome
        .map(|outcome| RunSummary::from_outcome(seed, &outcome))
        .map_err(|e| e.to_string())
}

/// Reads every `(point, seed)` summary of an `mbaa-report/1` document.
fn expected_runs(report: &str) -> Outcome<Expected> {
    let tree = parse(report).map_err(|e| format!("report: {e}"))?;
    let rows = (|| {
        let mut root = Ctx::root(&tree).object()?;
        let points = root.req("points")?;
        let mut expected = Expected::new();
        for (point, item) in points.ctx().array()?.iter().enumerate() {
            let mut obj = item.ctx().object()?;
            let runs = obj.req("runs")?;
            for run in runs.ctx().array()? {
                let summary = mbaa_json::schema::run_summary_from(run.ctx())?;
                expected.insert((point, summary.seed), summary);
            }
        }
        Ok::<_, mbaa_json::SchemaError>(expected)
    })();
    rows.map_err(|e| format!("report: {e}"))
}

/// `(messages_delivered, rounds_total)` of an `mbaa-metrics/1` document.
fn metric_counters(metrics: &str) -> Outcome<(u64, u64)> {
    let tree = parse(metrics).map_err(|e| format!("metrics: {e}"))?;
    let counters = (|| {
        let mut root = Ctx::root(&tree).object()?;
        let counters = root.req("counters")?;
        let mut obj = counters.ctx().object()?;
        let messages = obj.req("messages_delivered")?.ctx().u64()?;
        let rounds = obj.req("rounds_total")?.ctx().u64()?;
        Ok::<_, mbaa_json::SchemaError>((messages, rounds))
    })();
    counters.map_err(|e| format!("metrics: {e}"))
}

// ---------------------------------------------------------------------------
// trace: the sim executor's lowering and pack plan, rebuilt from public items
// ---------------------------------------------------------------------------

/// The per-point seed segments of one chunk, grouped as
/// `checkpoint::execute_chunk` groups them: consecutive runs of one point.
fn chunk_segments(plan: &SweepPlan, range: Range<usize>) -> Vec<(usize, Vec<u64>)> {
    let mut segments: Vec<(usize, Vec<u64>)> = Vec::new();
    for run in range {
        let (point, seed) = plan.pair(run);
        match segments.last_mut() {
            Some((last, seeds)) if *last == point => seeds.push(seed),
            _ => segments.push((point, vec![seed])),
        }
    }
    segments
}

fn segment_configs(plan: &SweepPlan, segments: &[(usize, Vec<u64>)]) -> Vec<ExperimentConfig> {
    segments
        .iter()
        .map(|(point, seeds)| plan.points[*point].1.to_experiment(seeds.iter().copied()))
        .collect()
}

/// Lowers every `(point, seed)` of a chunk into a packed lane at
/// `Observe::Summary`, as the sim executor does; returns each lane's point.
fn lower(
    configs: &[ExperimentConfig],
    segments: &[(usize, Vec<u64>)],
) -> Outcome<(Vec<PackedLane>, Vec<usize>)> {
    let mut lanes = Vec::new();
    let mut points = Vec::new();
    for (config, (point, _)) in configs.iter().zip(segments) {
        for &seed in &config.seeds {
            let mut protocol = config.protocol_config(seed).map_err(|e| e.to_string())?;
            protocol.observe = Observe::Summary;
            lanes.push(PackedLane {
                config: protocol,
                inputs: config.workload.generate(config.n, seed),
            });
            points.push(*point);
        }
    }
    Ok((lanes, points))
}

/// Contiguous packs of up to `BATCH_WIDTH` shape-compatible lanes, the
/// sim executor's pack plan.
fn plan_packs(lanes: &[PackedLane]) -> Vec<Range<usize>> {
    let mut packs = Vec::new();
    let mut start = 0;
    for i in 0..lanes.len() {
        if i - start == BATCH_WIDTH
            || (i > start && !shape_compatible(&lanes[start].config, &lanes[i].config))
        {
            packs.push(start..i);
            start = i;
        }
    }
    if start < lanes.len() {
        packs.push(start..lanes.len());
    }
    packs
}

/// Checks the rebuilt pack plan against the sim layer's own count.
fn check_occupancy(
    configs: &[ExperimentConfig],
    lanes: usize,
    packs: usize,
    checks: &mut Checks,
) -> Outcome<()> {
    let occupancy = mean_pack_occupancy(configs).map_err(|e| e.to_string())?;
    let rebuilt = lanes as f64 / (packs * BATCH_WIDTH) as f64;
    checks.require(occupancy == rebuilt, || {
        format!("pack plan has occupancy {rebuilt}, mean_pack_occupancy says {occupancy}")
    });
    Ok(())
}

fn same_network(a: &ProtocolConfig, b: &ProtocolConfig) -> bool {
    a.topology == b.topology
        && a.schedule == b.schedule
        && a.link_faults == b.link_faults
        && a.disconnection == b.disconnection
}

// ---------------------------------------------------------------------------
// trace: one replay
// ---------------------------------------------------------------------------

/// One replay's readings: seconds spent in each layer call site, and the
/// counts the replay observed.
#[derive(Default)]
struct Replay {
    parse_s: f64,
    plan_s: f64,
    execute_s: f64,
    serialize_s: f64,
    write_s: f64,
    read_s: f64,
    render_s: f64,
    lower_s: f64,
    realize_s: f64,
    untraced_s: f64,
    traced_s: f64,
    phase_ns: [u64; 4],
    bytes_written: u64,
    chunks: u64,
    packs: u64,
    lanes: u64,
    lane_rounds: u64,
    fast: u64,
    shared: u64,
    fallback: u64,
    scalar: u64,
}

impl Replay {
    fn counts(&self) -> [u64; 9] {
        [
            self.bytes_written,
            self.chunks,
            self.packs,
            self.lanes,
            self.lane_rounds,
            self.fast,
            self.shared,
            self.fallback,
            self.scalar,
        ]
    }

    /// Counts which path each lane of a pack takes, from the inputs
    /// `BatchEngine::run_packed` selects on, and times the shared network
    /// realization of each of the pack's network groups.
    fn classify(&mut self, pack: &[PackedLane]) {
        let size = pack.len() as u64;
        let packable = pack.len() >= 2
            && pack.iter().all(|l| l.config.observe == Observe::Summary)
            && pack
                .windows(2)
                .all(|w| shape_compatible(&w[0].config, &w[1].config));
        if !packable {
            self.scalar += size;
            return;
        }
        let fast = pack.iter().all(|l| {
            l.config.schedule.is_none()
                && l.config.link_faults.is_clean()
                && matches!(l.config.topology, Topology::Complete)
        });
        if fast {
            self.fast += size;
            return;
        }
        let mut groups: Vec<(&ProtocolConfig, bool)> = Vec::new();
        for lane in pack {
            let cfg = &lane.config;
            let shared = match groups.iter().find(|(group, _)| same_network(group, cfg)) {
                Some(&(_, shared)) => shared,
                None => {
                    let start = Instant::now();
                    let realization = SharedRealization::try_build(
                        cfg.n,
                        &cfg.topology,
                        cfg.schedule.as_ref(),
                        &cfg.link_faults,
                        cfg.disconnection,
                    );
                    self.realize_s += secs(start);
                    let shared = black_box(realization).is_some();
                    groups.push((cfg, shared));
                    shared
                }
            };
            if shared {
                self.shared += 1;
            } else {
                self.fallback += 1;
            }
        }
    }

    /// Runs every pack of one chunk on this thread, untraced and traced,
    /// alternating which goes first, and checks both against the report.
    fn run_packs(
        &mut self,
        plan: &SweepPlan,
        index: usize,
        profiler: &mut PhaseProfiler,
        expected: &Expected,
        checks: &mut Checks,
    ) -> Outcome<()> {
        let segments = chunk_segments(plan, plan.chunk_range(index));
        let configs = segment_configs(plan, &segments);
        let start = Instant::now();
        let (lanes, points) = lower(&configs, &segments)?;
        self.lower_s += secs(start);
        let packs = plan_packs(&lanes);
        check_occupancy(&configs, lanes.len(), packs.len(), checks)?;
        self.packs += packs.len() as u64;
        self.lanes += lanes.len() as u64;
        for (i, range) in packs.into_iter().enumerate() {
            let pack = &lanes[range.clone()];
            self.classify(pack);
            let mut untraced = Vec::new();
            let mut traced = Vec::new();
            for turn in 0..2 {
                let start = Instant::now();
                if (turn + i) % 2 == 0 {
                    untraced = BatchEngine::run_packed(black_box(pack));
                    self.untraced_s += secs(start);
                } else {
                    traced = BatchEngine::run_packed_observed(black_box(pack), profiler);
                    self.traced_s += secs(start);
                }
            }
            for ((lane, point), (plain, observed)) in pack
                .iter()
                .zip(&points[range])
                .zip(untraced.into_iter().zip(traced))
            {
                let seed = lane.config.seed;
                let plain = summary_of(seed, plain);
                if let Ok(summary) = &plain {
                    self.lane_rounds += summary.rounds as u64;
                }
                checks.run("untraced pack", *point, seed, plain, expected);
                checks.run(
                    "traced pack",
                    *point,
                    seed,
                    summary_of(seed, observed),
                    expected,
                );
            }
        }
        Ok(())
    }
}

/// Replays the sweep into `dir` in `mbaa sweep` then `mbaa merge` order.
fn replay(
    text: &str,
    dir: &Path,
    workers: usize,
    expected: &Expected,
    report: &str,
    checks: &mut Checks,
) -> Outcome<Replay> {
    let mut r = Replay::default();
    remove_dir(dir)?;

    // mbaa sweep: parse, plan and manifest, then per chunk execute,
    // serialize and write.
    let start = Instant::now();
    let doc = ScenarioFile::parse_str(text).map_err(|e| e.to_string())?;
    r.parse_s = secs(start);
    let start = Instant::now();
    let plan = SweepPlan::new(&doc, DEFAULT_CHUNK_SIZE);
    checkpoint::ensure_manifest(dir, &plan).map_err(|e| e.to_string())?;
    r.plan_s = secs(start);
    let mut profiler = PhaseProfiler::new();
    for index in 0..plan.chunk_count() {
        let start = Instant::now();
        let entries =
            checkpoint::execute_chunk(&plan, index, Some(workers)).map_err(|e| e.to_string())?;
        r.execute_s += secs(start);
        for entry in &entries {
            checks.run(
                "execute_chunk",
                entry.point,
                entry.seed,
                Ok(entry.summary),
                expected,
            );
        }
        let start = Instant::now();
        let chunk = write_string(&checkpoint::chunk_json(&plan, index, &entries));
        r.serialize_s += secs(start);
        let start = Instant::now();
        checkpoint::write_atomic(&checkpoint::chunk_path(dir, index), &chunk)
            .map_err(|e| e.to_string())?;
        r.write_s += secs(start);
        r.bytes_written += chunk.len() as u64 + 1;
        r.chunks += 1;
        r.run_packs(&plan, index, &mut profiler, expected, checks)?;
    }
    for row in profiler.breakdown().rows {
        r.phase_ns[row.phase.index()] = row.total_nanos;
    }

    // mbaa merge: read every chunk, render the report.
    let start = Instant::now();
    let mut per_point: Vec<Vec<RunSummary>> = vec![Vec::new(); plan.points.len()];
    for index in 0..plan.chunk_count() {
        let entries = checkpoint::read_chunk(dir, &plan, index)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("chunk {index} vanished"))?;
        for entry in entries {
            per_point[entry.point].push(entry.summary);
        }
    }
    r.read_s = secs(start);
    let rows: Vec<ReportPoint> = plan
        .points
        .iter()
        .zip(per_point)
        .map(|((label, _), runs)| ReportPoint {
            label: label.clone(),
            runs,
        })
        .collect();
    let start = Instant::now();
    let rendered = write_string(&report_json(&plan.doc, &plan.points, &rows));
    r.render_s = secs(start);
    checks.require(report.strip_suffix('\n') == Some(rendered.as_str()), || {
        "re-rendered report differs from the `mbaa run --out` report".to_string()
    });
    remove_dir(dir)?;
    Ok(r)
}

// ---------------------------------------------------------------------------
// trace: whole-workload readings
// ---------------------------------------------------------------------------

/// `(packs, lanes)` of the one-shot path: `mbaa run` plans one chunk per
/// point.
fn oneshot_packs(doc: &ScenarioFile, checks: &mut Checks) -> Outcome<(u64, u64)> {
    let plan = SweepPlan::new(doc, doc.seeds.seeds().len().max(1));
    let (mut packs, mut lanes) = (0, 0);
    for index in 0..plan.chunk_count() {
        let segments = chunk_segments(&plan, plan.chunk_range(index));
        let configs = segment_configs(&plan, &segments);
        let (chunk_lanes, _) = lower(&configs, &segments)?;
        let chunk_packs = plan_packs(&chunk_lanes).len();
        check_occupancy(&configs, chunk_lanes.len(), chunk_packs, checks)?;
        packs += chunk_packs as u64;
        lanes += chunk_lanes.len() as u64;
    }
    Ok((packs, lanes))
}

/// The closed neighbourhood every receiver's row holds on the workload's
/// base graph.
fn row_width(config: &ProtocolConfig) -> Outcome<usize> {
    let topology = match &config.schedule {
        None => &config.topology,
        Some(TopologySchedule::Static(base) | TopologySchedule::SeededChurn { base, .. }) => base,
        Some(TopologySchedule::Periodic { phases }) => {
            phases.first().ok_or("periodic schedule without phases")?
        }
    };
    let graph = topology
        .realize(config.n, config.seed)
        .map_err(|e| e.to_string())?;
    Ok(graph.min_closed_neighborhood())
}

/// `MsrFunction::apply_sorted_lanes` timed alone: one lane's `n` receiver
/// rows of the workload's row width, folded in one call. Median of batches
/// of at least 2 ms each.
fn fold_ns_per_row(plan: &SweepPlan, budget_s: f64) -> Outcome<f64> {
    let scenario = &plan.points[0].1;
    let config = scenario.lower(plan.seeds[0]).map_err(|e| e.to_string())?;
    let width = row_width(&config)?;
    let rows = config.n;
    let flat: Vec<Value> = (0..rows * width)
        .map(|i| Value::new((i % width) as f64))
        .collect();
    let mut out = vec![None; rows];
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || (secs(start) < budget_s && samples.len() < 101) {
        let batch = Instant::now();
        let mut calls = 0usize;
        while calls < 16 || secs(batch) < 0.002 {
            config
                .function
                .apply_sorted_lanes(black_box(&flat), width, black_box(&mut out));
            calls += 1;
        }
        samples.push(batch.elapsed().as_nanos() as f64 / (calls * rows) as f64);
    }
    Ok(median(samples))
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn trace(opts: &Opts) -> Outcome<String> {
    let text = read(Path::new(opts.get("scenario")?))?;
    let report = read(Path::new(opts.get("report")?))?;
    let (messages, rounds_total) = metric_counters(&read(Path::new(opts.get("metrics")?))?)?;
    let dir = PathBuf::from(opts.get("dir")?);
    let workers: usize = opts.num("workers")?;
    let seconds: f64 = opts.num("seconds")?;
    let expected = expected_runs(&report)?;
    let mut checks = Checks::default();

    // Replays repeat while the budget lasts; at least one always runs.
    let start = Instant::now();
    let mut replays: Vec<Replay> = Vec::new();
    loop {
        let one = Instant::now();
        let path = dir.join(format!("replay-{}", replays.len()));
        replays.push(replay(
            &text,
            &path,
            workers,
            &expected,
            &report,
            &mut checks,
        )?);
        if secs(start) + secs(one) > seconds {
            break;
        }
    }
    let first = &replays[0];
    checks.require(replays.iter().all(|r| r.counts() == first.counts()), || {
        "replays disagree on their counts".to_string()
    });
    checks.require(first.lanes as usize == expected.len(), || {
        format!(
            "replayed {} lanes, the report has {} runs",
            first.lanes,
            expected.len()
        )
    });
    checks.require(rounds_total == first.lane_rounds, || {
        format!(
            "metrics document counts {rounds_total} rounds, the replay ran {}",
            first.lane_rounds
        )
    });

    let doc = ScenarioFile::parse_str(&text).map_err(|e| e.to_string())?;
    let plan = SweepPlan::new(&doc, DEFAULT_CHUNK_SIZE);
    let (oneshot_packs, oneshot_lanes) = oneshot_packs(&doc, &mut checks)?;
    let fold_ns = fold_ns_per_row(&plan, 0.5)?;

    let occupancy = first.lanes as f64 / (first.packs as f64 * BATCH_WIDTH as f64);
    match opts.opt("expect-path") {
        Some("fast") => checks.require(first.fast == first.lanes, || {
            format!("{} of {} lanes on the fast path", first.fast, first.lanes)
        }),
        Some("shared") => checks.require(first.shared == first.lanes, || {
            format!(
                "{} of {} lanes on the shared path",
                first.shared, first.lanes
            )
        }),
        Some(other) => return Err(format!("unknown --expect-path {other:?}")),
        None => {}
    }
    if let Some(min) = opts.opt("min-occupancy") {
        let min: f64 = min.parse().map_err(|_| "--min-occupancy wants a number")?;
        checks.require(occupancy >= min, || {
            format!("sweep-path pack occupancy {occupancy} is below {min}")
        });
    }

    let med = |f: fn(&Replay) -> f64| median(replays.iter().map(f).collect());
    let lane_rounds = first.lane_rounds.max(1) as f64;
    let phase = |p: Phase| med_phase(&replays, p) / lane_rounds;
    let execute_s = med(|r| r.execute_s);
    let metrics: Vec<(&str, f64)> = vec![
        ("json.parse_s", med(|r| r.parse_s)),
        ("cli.plan_s", med(|r| r.plan_s)),
        ("json.chunk_serialize_s", med(|r| r.serialize_s)),
        ("cli.chunk_write_s", med(|r| r.write_s)),
        ("cli.bytes_written", first.bytes_written as f64),
        ("cli.chunks", first.chunks as f64),
        ("cli.chunk_read_s", med(|r| r.read_s)),
        ("json.report_render_s", med(|r| r.render_s)),
        ("facade.execute_s", execute_s),
        ("sim.lower_s", med(|r| r.lower_s)),
        ("sim.packs", first.packs as f64),
        ("sim.pack_occupancy", occupancy),
        ("sim.oneshot_packs", oneshot_packs as f64),
        (
            "sim.oneshot_pack_occupancy",
            oneshot_lanes as f64 / (oneshot_packs as f64 * BATCH_WIDTH as f64),
        ),
        (
            "sim.parallel_efficiency",
            med(|r| r.untraced_s) / (workers as f64 * execute_s),
        ),
        ("core.lane_rounds", first.lane_rounds as f64),
        ("core.adversary_plan_ns", phase(Phase::AdversaryPlan)),
        ("core.exchange_ns", phase(Phase::Exchange)),
        ("core.msr_apply_ns", phase(Phase::MsrApply)),
        ("core.record_ns", phase(Phase::Record)),
        ("core.lanes_fast", first.fast as f64),
        ("core.lanes_shared", first.shared as f64),
        ("core.lanes_fallback", first.fallback as f64),
        ("core.lanes_scalar", first.scalar as f64),
        ("net.realize_s", med(|r| r.realize_s)),
        (
            "net.messages_per_lane_round",
            messages as f64 / rounds_total.max(1) as f64,
        ),
        ("msr.fold_ns_per_row", fold_ns),
        ("trace.overhead", med(|r| r.traced_s / r.untraced_s)),
    ];
    let mut body = Vec::with_capacity(metrics.len());
    for (name, value) in metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        body.push(format!("{}: {value:?}", json_string(name)));
    }
    let problems: Vec<String> = checks.problems.iter().map(|p| json_string(p)).collect();
    Ok(format!(
        "{{\"attempted\": {}, \"failed\": {}, \"replays\": {}, \"problems\": [{}], \"metrics\": {{{}}}}}",
        checks.runs,
        checks.failed_runs,
        replays.len(),
        problems.join(", "),
        body.join(", ")
    ))
}

fn med_phase(replays: &[Replay], phase: Phase) -> f64 {
    median(
        replays
            .iter()
            .map(|r| r.phase_ns[phase.index()] as f64)
            .collect(),
    )
}

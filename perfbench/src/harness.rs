//! What every workload shares: the run configuration, set-up timing, the
//! closed loop, per-job records, and the metrics printed at the end.

use crate::alloc;
use crate::trace::{Layer, Tracer};
use netsim_sim::CostAccount;
use std::time::Instant;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_file: Option<std::path::PathBuf>,
}

/// One completed job: host time, heap figures, and the simulated cost the
/// program reported for it.
#[derive(Clone, Copy, Debug)]
pub struct JobStats {
    pub secs: f64,
    pub peak_bytes: usize,
    pub allocs: u64,
    /// Nodes the flat engine stepped (0 where the workload does not drive a
    /// `SyncEngine` itself).
    pub stepped: u64,
    pub cost: CostAccount,
}

/// Times one job and samples the counting allocator around it.
pub struct Meter {
    start: Instant,
    allocs: u64,
}

impl Meter {
    pub fn start() -> Self {
        alloc::reset_peak();
        Meter {
            allocs: alloc::allocs(),
            start: Instant::now(),
        }
    }

    /// Stops the clock; `cost` and `stepped` are the job's simulated work.
    pub fn stop(self, cost: CostAccount, stepped: u64) -> JobStats {
        let secs = self.start.elapsed().as_secs_f64();
        JobStats {
            secs,
            peak_bytes: alloc::peak(),
            allocs: alloc::allocs() - self.allocs,
            stepped,
            cost,
        }
    }
}

/// `after − before`, field by field.
pub fn cost_delta(after: &CostAccount, before: &CostAccount) -> CostAccount {
    CostAccount {
        rounds: after.rounds - before.rounds,
        p2p_messages: after.p2p_messages - before.p2p_messages,
        channel_writes: after.channel_writes - before.channel_writes,
        slots_idle: after.slots_idle - before.slots_idle,
        slots_success: after.slots_success - before.slots_success,
        slots_collision: after.slots_collision - before.slots_collision,
        dropped_messages: after.dropped_messages - before.dropped_messages,
        erased_slots: after.erased_slots - before.erased_slots,
        crashed_rounds: after.crashed_rounds - before.crashed_rounds,
        lane_writes: after.lane_writes - before.lane_writes,
        lanes_busy: after.lanes_busy - before.lanes_busy,
        lanes_erased: after.lanes_erased - before.lanes_erased,
        corrupted_payloads: after.corrupted_payloads - before.corrupted_payloads,
    }
}

/// Operations attempted and failed, with the records of the jobs that
/// completed.
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub setup: Vec<f64>,
    /// Completed jobs (traced ones only, in a traced run).
    pub jobs: Vec<JobStats>,
    /// Host seconds of the untraced jobs of a traced run.
    pub untraced: Vec<f64>,
}

impl Tally {
    pub fn new() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            correct: true,
            setup: Vec::new(),
            jobs: Vec::new(),
            untraced: Vec::new(),
        }
    }

    /// Records a completed job whose outputs passed the oracle.
    pub fn passed(&mut self, job: JobStats, phase: Phase) {
        self.attempted += 1;
        match phase {
            Phase::Timed | Phase::Traced => self.jobs.push(job),
            Phase::Untraced => self.untraced.push(job.secs),
        }
    }

    /// Records a job whose outputs the oracle rejected: the job failed and
    /// the program's output was wrong.
    pub fn wrong(&mut self, what: &str) {
        eprintln!("perfbench: oracle mismatch: {what}");
        self.attempted += 1;
        self.failed += 1;
        self.correct = false;
    }
}

/// Which half of the closed loop a cycle runs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// The untraced run: every job counts towards the end-to-end metrics.
    Timed,
    /// The traced half of a traced run: jobs give the per-layer metrics.
    Traced,
    /// The untraced half of a traced run: job times give the overhead.
    Untraced,
}

/// Set-up builds made before the kept one.
const SETUP_FIRST_REPS: usize = 3;
/// Share of the closed loop's time spent on further set-up builds.
const SETUP_SHARE: f64 = 0.1;

/// Times set-up builds: a few before the kept copy of the inputs is built,
/// then more between jobs, for about a tenth of the closed loop's time.
/// Spreading the samples over the whole run makes their median follow the
/// host's average state, not that of the run's first second.
pub struct SetupSampler<F: FnMut(&mut Tracer)> {
    build: F,
    secs: Vec<f64>,
    spent: f64,
    since: Instant,
}

impl<F: FnMut(&mut Tracer)> SetupSampler<F> {
    /// `build` makes the workload's inputs and drops them.
    pub fn new(build: F, tr: &mut Tracer) -> Self {
        let mut sampler = SetupSampler {
            build,
            secs: Vec::new(),
            spent: 0.0,
            since: Instant::now(),
        };
        for _ in 0..SETUP_FIRST_REPS {
            sampler.build_once(tr);
        }
        sampler.spent = 0.0;
        sampler.since = Instant::now();
        sampler
    }

    fn build_once(&mut self, tr: &mut Tracer) {
        let setup = Setup::begin(tr);
        (self.build)(tr);
        let secs = setup.stop(tr);
        self.secs.push(secs);
        self.spent += secs;
    }

    /// Call between jobs: builds once more if set-up has had less than its
    /// share of the time since the loop began.
    pub fn between_jobs(&mut self, tr: &mut Tracer) {
        if self.spent < SETUP_SHARE * self.since.elapsed().as_secs_f64() {
            self.build_once(tr);
        }
    }

    /// Adds every sample to the tally's set-up times.
    pub fn finish(self, tally: &mut Tally) {
        tally.setup.extend(self.secs);
    }
}

/// An open set-up measurement.
pub struct Setup {
    start: Instant,
    span: crate::trace::Open,
}

impl Setup {
    pub fn begin(tr: &mut Tracer) -> Self {
        let span = tr.begin(Layer::Setup);
        Setup {
            start: Instant::now(),
            span,
        }
    }

    pub fn stop(self, tr: &mut Tracer) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        tr.end(self.span);
        secs
    }

    /// Stops the clock and records the sample.
    pub fn end(self, tally: &mut Tally, tr: &mut Tracer) {
        let secs = self.stop(tr);
        tally.setup.push(secs);
    }
}

/// Runs whole cycles until the next one would end past `seconds` (at least
/// one cycle).  A cycle is the workload's fixed group of operations, so the
/// share of failed operations is the same in every run.  In a traced run
/// `cycle` is called twice per round, traced then untraced.
pub fn closed_loop(seconds: f64, tr: &mut Tracer, mut cycle: impl FnMut(&mut Tracer, Phase)) {
    let traced_run = tr.is_on();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        if traced_run {
            cycle(tr, Phase::Traced);
            tr.set_on(false);
            cycle(tr, Phase::Untraced);
            tr.set_on(true);
        } else {
            cycle(tr, Phase::Timed);
        }
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `0..=100`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric with its unit.  A layer a workload does not call
/// reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_s", "s"),
    ("engine.round_us_p50", "us"),
    ("engine.round_us_p99", "us"),
    ("engine.allocs_per_round", "count"),
    ("engine.msgs_per_round", "count"),
    ("engine.stepped_per_round", "count"),
    ("engine.activity", "ratio"),
    ("engine.self_s", "s"),
    ("channel.writes", "count"),
    ("channel.collisions", "count"),
    ("channel.lane_writes", "count"),
    ("channel.lanes_busy", "count"),
    ("channel.success_ratio", "ratio"),
    ("fault.dropped_msgs", "count"),
    ("fault.crashed_rounds", "count"),
    ("fault.overhead_us_per_round", "us"),
    ("partition.s", "s"),
    ("partition.phases", "count"),
    ("partition.rounds", "count"),
    ("global_fn.s", "s"),
    ("global_fn.global_rounds", "count"),
    ("global_fn.rounds", "count"),
    ("mst.s", "s"),
    ("mst.phases", "count"),
    ("mst.election_rounds", "count"),
    ("mst.msgs", "count"),
    ("rebalance.s", "s"),
    ("rebalance.rounds", "count"),
    ("rebalance.static_rounds", "count"),
    ("rebalance.commits", "count"),
    ("rebalance.migrations", "count"),
    ("rebalance.commit_ratio", "ratio"),
    ("wire.round_us_p50", "us"),
    ("wire.round_us_p99", "us"),
    ("wire.bytes_per_round", "B"),
    ("wire.bytes_per_msg", "B"),
    ("wire.overhead_us_per_round", "us"),
    ("wire.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Per-layer metric values, all starting at 0.
pub struct Layers(Vec<f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(vec![0.0; PER_LAYER.len()])
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.0[i] = value;
    }

    /// The per-layer metrics every workload derives the same way: from the
    /// completed jobs' cost accounts and allocation counts, and from the
    /// trace's spans.  `nodes` is the node count the engine steps over.
    pub fn common(tally: &Tally, tr: &Tracer, nodes: usize) -> Self {
        let mut l = Layers::new();
        let jobs = tally.jobs.len().max(1) as f64;
        let sum = |f: &dyn Fn(&JobStats) -> u64| tally.jobs.iter().map(f).sum::<u64>() as f64;
        let rounds = sum(&|j| j.cost.rounds);
        let stepped = sum(&|j| j.stepped);
        l.set("graph.gen_s", median(&tr.durations(Layer::Graph)));
        let round_us: Vec<f64> = tr
            .durations_under(Layer::Engine, Layer::Job)
            .iter()
            .map(|s| s * 1e6)
            .collect();
        l.set("engine.round_us_p50", median(&round_us));
        l.set("engine.round_us_p99", percentile(&round_us, 99.0));
        // Per job, then the median: allocations while capacities first grow
        // belong to the first jobs only, so a total over the run would
        // depend on how many jobs it fitted.
        let allocs: Vec<f64> = tally
            .jobs
            .iter()
            .map(|j| ratio(j.allocs as f64, j.cost.rounds as f64))
            .collect();
        l.set("engine.allocs_per_round", median(&allocs));
        l.set(
            "engine.msgs_per_round",
            ratio(sum(&|j| j.cost.p2p_messages), rounds),
        );
        l.set("engine.stepped_per_round", ratio(stepped, rounds));
        l.set("engine.activity", ratio(stepped, rounds * nodes as f64));
        l.set("channel.writes", sum(&|j| j.cost.channel_writes) / jobs);
        l.set(
            "channel.collisions",
            sum(&|j| j.cost.slots_collision) / jobs,
        );
        l.set("channel.lane_writes", sum(&|j| j.cost.lane_writes) / jobs);
        l.set("channel.lanes_busy", sum(&|j| j.cost.lanes_busy) / jobs);
        l.set(
            "channel.success_ratio",
            ratio(
                sum(&|j| j.cost.slots_success),
                sum(&|j| j.cost.slots_success + j.cost.slots_collision + j.cost.erased_slots),
            ),
        );
        l.set(
            "fault.dropped_msgs",
            sum(&|j| j.cost.dropped_messages) / jobs,
        );
        l.set(
            "fault.crashed_rounds",
            sum(&|j| j.cost.crashed_rounds) / jobs,
        );
        l.set(
            "engine.self_s",
            tr.self_time(Layer::Engine, Some(Layer::Job)) / jobs,
        );
        l.set("bench.self_s", tr.self_time(Layer::Job, None) / jobs);
        l.set(
            "trace.overhead_pct",
            (ratio(
                median(&tally.jobs.iter().map(|j| j.secs).collect::<Vec<_>>()),
                median(&tally.untraced),
            ) - 1.0)
                * 100.0,
        );
        l.set("trace.spans", tr.spans().len() as f64);
        l
    }
}

/// Prints the run's result as the last line of standard output.
pub fn print_result(cfg: &Config, tally: &Tally, layers: Option<&Layers>) {
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if cfg.trace {
        let layers = layers.expect("a traced run reports per-layer metrics");
        for ((name, unit), value) in PER_LAYER.iter().zip(&layers.0) {
            metrics.push((name, *value, unit));
        }
    } else {
        let secs: Vec<f64> = tally.jobs.iter().map(|j| j.secs).collect();
        let rounds: Vec<f64> = tally.jobs.iter().map(|j| j.cost.rounds as f64).collect();
        let msgs: Vec<f64> = tally
            .jobs
            .iter()
            .map(|j| j.cost.p2p_messages as f64)
            .collect();
        let heap: Vec<f64> = tally
            .jobs
            .iter()
            .map(|j| j.peak_bytes as f64 / (1u64 << 20) as f64)
            .collect();
        let job_s = median(&secs);
        let sim_rounds = median(&rounds);
        metrics.push(("setup_s", median(&tally.setup), "s"));
        metrics.push(("job_s", job_s, "s"));
        metrics.push(("rounds_per_s", ratio(sim_rounds, job_s), "1/s"));
        metrics.push(("sim_rounds", sim_rounds, "rounds"));
        metrics.push(("sim_msgs", median(&msgs), "messages"));
        metrics.push(("peak_heap_mib", median(&heap), "MiB"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    eprintln!(
        "perfbench: {} seed {}: {} jobs, {} attempted, {} failed",
        cfg.workload,
        cfg.seed,
        tally.jobs.len(),
        tally.attempted,
        tally.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct && !tally.jobs.is_empty(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

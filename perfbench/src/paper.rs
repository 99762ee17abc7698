//! `paper_k16`: the paper's divide-and-conquer jobs on K = 16 channels — a
//! deterministic partition, the sharded global sum and the sharded MST on
//! it, over a weighted 8192-node geometric network, and an adaptive
//! re-sharded sum of a Zipf-skewed ring.  Rounds are many and short with
//! light point-to-point traffic, so the work sits in partitioning,
//! elections, slot and lane resolution, re-attachment, re-sharding and
//! per-round overhead.
//!
//! A job runs the four pipelines on each of [`INSTANCES`] networks drawn
//! from the seed: one network's round count and host time depend on its
//! draw by several per cent, and the sum over eight varies about a third
//! as much from seed to seed.

use crate::harness::{closed_loop, Config, JobStats, Layers, Meter, Setup, SetupSampler, Tally};
use crate::oracle;
use crate::protocols::mix;
use crate::trace::{Layer, Tracer};
use multimedia::global_fn::{self, Sum};
use multimedia::mst::{self, MergeSubstrate};
use multimedia::partition::deterministic;
use multimedia::{rebalance, MultimediaNetwork};
use netsim_graph::generators::Family;
use netsim_sim::{ChannelId, CostAccount};
use std::hint::black_box;

pub const NODES: usize = 8192;
pub const RING_NODES: usize = 2048;
pub const K: u16 = 16;
pub const INSTANCES: u64 = 8;
const WINDOWS: u32 = 6;
const SKEW: u64 = 2;

struct Inputs {
    seed: u64,
    net: MultimediaNetwork,
    ring: MultimediaNetwork,
    sums: Vec<Sum>,
    values: Vec<u64>,
    chans: Vec<ChannelId>,
}

fn build(seed: u64, tr: &mut Tracer) -> Vec<Inputs> {
    (0..INSTANCES)
        .map(|i| build_one(mix(seed ^ mix(i ^ 0x1f1f)), tr))
        .collect()
}

fn build_one(seed: u64, tr: &mut Tracer) -> Inputs {
    let (g, ring) = tr.span(Layer::Graph, || {
        (
            Family::Geometric.generate(NODES, seed),
            Family::Ring.generate(RING_NODES, seed),
        )
    });
    let net = MultimediaNetwork::new(g);
    let ring = MultimediaNetwork::new(ring);
    let sums = (0..NODES as u64).map(|v| Sum(mix(seed ^ mix(v)))).collect();
    let values = (0..RING_NODES as u64)
        .map(|v| mix(seed ^ mix(v ^ 0x77)) | 1)
        .collect();
    let chans = rebalance::zipf_channels(RING_NODES, K, 1);
    Inputs {
        seed,
        net,
        ring,
        sums,
        values,
        chans,
    }
}

/// What one job produced, kept for the oracle and the per-layer counts.
struct Outputs {
    partition: multimedia::PartitionOutcome,
    gf: global_fn::ShardedGlobalFnRun<Sum>,
    mst: mst::ShardedMstRun,
    rb: rebalance::RebalanceRun,
}

fn job(inputs: &[Inputs], tr: &mut Tracer) -> (JobStats, Vec<Outputs>) {
    let meter = Meter::start();
    let span = tr.begin(Layer::Job);
    let outs: Vec<Outputs> = inputs.iter().map(|inp| pipelines(inp, tr)).collect();
    tr.end(span);
    let cost = outs
        .iter()
        .map(|o| {
            o.partition.cost
                + o.gf.local_cost
                + o.gf.global_cost
                + o.mst.election_cost
                + o.mst.merge_cost
                + o.rb.cost
        })
        .fold(CostAccount::new(), |a, c| a + c);
    (meter.stop(cost, 0), outs)
}

fn pipelines(inp: &Inputs, tr: &mut Tracer) -> Outputs {
    let partition = tr.span(Layer::Partition, || deterministic::partition(&inp.net));
    let gf = tr.span(Layer::GlobalFn, || {
        global_fn::compute_sharded_with_partition(
            &inp.net,
            &partition,
            &inp.sums,
            K,
            MergeSubstrate::Flat,
        )
    });
    let mst = tr.span(Layer::Mst, || {
        mst::sharded_mst_from_partition(&inp.net, &partition, K, MergeSubstrate::Flat)
    });
    let rb = tr.span(Layer::Rebalance, || rebalanced(inp, Some(SKEW)));
    Outputs {
        partition,
        gf,
        mst,
        rb,
    }
}

fn rebalanced(inp: &Inputs, skew: Option<u64>) -> rebalance::RebalanceRun {
    rebalance::rebalanced_sum(
        &inp.ring,
        &inp.values,
        &inp.chans,
        K,
        WINDOWS,
        skew,
        inp.seed,
        None,
        MergeSubstrate::Flat,
    )
}

/// The per-layer counts of one job's outputs (identical in every job of a
/// run: the inputs are the same and the program is deterministic).
#[derive(Default)]
struct Counts {
    partition_phases: f64,
    partition_rounds: f64,
    gf_global_rounds: f64,
    gf_rounds: f64,
    mst_phases: f64,
    mst_election_rounds: f64,
    mst_msgs: f64,
    rb_rounds: f64,
    commits: f64,
    attempts: f64,
    migrations: f64,
}

impl Counts {
    /// Summed over the instances of one job.
    fn of(outs: &[Outputs]) -> Self {
        outs.iter()
            .map(Counts::one)
            .fold(Counts::default(), |a, b| Counts {
                partition_phases: a.partition_phases + b.partition_phases,
                partition_rounds: a.partition_rounds + b.partition_rounds,
                gf_global_rounds: a.gf_global_rounds + b.gf_global_rounds,
                gf_rounds: a.gf_rounds + b.gf_rounds,
                mst_phases: a.mst_phases + b.mst_phases,
                mst_election_rounds: a.mst_election_rounds + b.mst_election_rounds,
                mst_msgs: a.mst_msgs + b.mst_msgs,
                rb_rounds: a.rb_rounds + b.rb_rounds,
                commits: a.commits + b.commits,
                attempts: a.attempts + b.attempts,
                migrations: a.migrations + b.migrations,
            })
    }

    fn one(out: &Outputs) -> Self {
        Counts {
            partition_phases: f64::from(out.partition.phases),
            partition_rounds: out.partition.cost.rounds as f64,
            gf_global_rounds: out.gf.global_rounds() as f64,
            gf_rounds: (out.gf.local_cost.rounds + out.gf.global_cost.rounds) as f64,
            mst_phases: f64::from(out.mst.phases),
            mst_election_rounds: out.mst.election_rounds() as f64,
            mst_msgs: (out.mst.election_cost.p2p_messages + out.mst.merge_cost.p2p_messages) as f64,
            rb_rounds: out.rb.rounds() as f64,
            commits: out.rb.events.iter().filter(|e| e.committed).count() as f64,
            attempts: out.rb.events.len() as f64,
            migrations: out.rb.migrations as f64,
        }
    }
}

struct Expected {
    sum: u64,
    ring_sum: u64,
    kruskal: u128,
    target: usize,
    static_rounds: u64,
}

fn expected(inp: &Inputs) -> Expected {
    let g = inp.net.graph();
    Expected {
        sum: inp.sums.iter().fold(0u64, |a, s| a.wrapping_add(s.0)),
        ring_sum: inp.values.iter().fold(0u64, |a, &v| a.wrapping_add(v)),
        kruskal: netsim_graph::mst::weight_of(g, &netsim_graph::mst::kruskal(g)),
        target: 1usize << inp.net.target_level(),
        static_rounds: rebalanced(inp, None).rounds(),
    }
}

fn check(inp: &Inputs, out: &Outputs, want: &Expected) -> Result<(), String> {
    let g = inp.net.graph();
    oracle::partition(&out.partition.forest, g.node_count(), want.target)?;
    if out.gf.value.0 != want.sum {
        return Err(format!("global sum {} != {}", out.gf.value.0, want.sum));
    }
    oracle::mst(g, &out.mst.edges, want.kruskal)?;
    if let Some(t) = out.rb.window_totals.iter().find(|&&t| t != want.ring_sum) {
        return Err(format!("window total {t} != {}", want.ring_sum));
    }
    if out.rb.window_totals.len() != WINDOWS as usize {
        return Err(format!("{} window totals", out.rb.window_totals.len()));
    }
    if !out.rb.events.iter().any(|e| e.committed) {
        return Err("no re-sharding cut committed".into());
    }
    if out.rb.rounds() >= want.static_rounds {
        return Err(format!(
            "adaptive rounds {} not below static {}",
            out.rb.rounds(),
            want.static_rounds
        ));
    }
    Ok(())
}

pub fn run(cfg: &Config) -> (Tally, Option<Layers>) {
    let mut tally = Tally::new();
    let mut tr = Tracer::new(cfg.trace);
    let mut sampler = SetupSampler::new(
        |tr| {
            black_box(build(cfg.seed, tr));
        },
        &mut tr,
    );
    let setup = Setup::begin(&mut tr);
    let inputs = build(cfg.seed, &mut tr);
    setup.end(&mut tally, &mut tr);

    let wants: Vec<Expected> = inputs.iter().map(expected).collect();
    let mut counts = Counts::default();
    closed_loop(cfg.seconds, &mut tr, |tr, phase| {
        let (stats, outs) = job(&inputs, tr);
        let checked = inputs
            .iter()
            .zip(&outs)
            .zip(&wants)
            .try_for_each(|((inp, out), want)| check(inp, out, want));
        match checked {
            Ok(()) => tally.passed(stats, phase),
            Err(e) => tally.wrong(&e),
        }
        counts = Counts::of(&outs);
        sampler.between_jobs(tr);
    });
    sampler.finish(&mut tally);
    let layers = cfg.trace.then(|| {
        let mut l = Layers::common(&tally, &tr, NODES);
        let jobs = tally.jobs.len().max(1) as f64;
        let per_job = |layer: Layer| tr.self_time(layer, None) / jobs;
        l.set("partition.s", per_job(Layer::Partition));
        l.set("global_fn.s", per_job(Layer::GlobalFn));
        l.set("mst.s", per_job(Layer::Mst));
        l.set("rebalance.s", per_job(Layer::Rebalance));
        let c = &counts;
        l.set("partition.phases", c.partition_phases);
        l.set("partition.rounds", c.partition_rounds);
        l.set("global_fn.global_rounds", c.gf_global_rounds);
        l.set("global_fn.rounds", c.gf_rounds);
        l.set("mst.phases", c.mst_phases);
        l.set("mst.election_rounds", c.mst_election_rounds);
        l.set("mst.msgs", c.mst_msgs);
        l.set("rebalance.rounds", c.rb_rounds);
        l.set(
            "rebalance.static_rounds",
            wants.iter().map(|w| w.static_rounds as f64).sum(),
        );
        l.set("rebalance.commits", c.commits);
        l.set("rebalance.migrations", c.migrations);
        l.set(
            "rebalance.commit_ratio",
            crate::harness::ratio(c.commits, c.attempts),
        );
        l
    });
    crate::finish_trace(cfg, &tr);
    (tally, layers)
}

//! `frontier_churn`: a sparse token relay on a large, mostly idle graph
//! under a seeded plan of point-to-point drops and a scripted crash/recover
//! schedule.  Per-round cost should follow the active set (well under 1 % of
//! the nodes); the fault session's per-round work shows against it.

use crate::harness::{
    closed_loop, median, Config, JobStats, Layers, Meter, Phase, Setup, SetupSampler, Tally,
};
use crate::oracle::RelayReplay;
use crate::protocols::{mix, Relay};
use crate::trace::{Layer, Tracer};
use netsim_graph::{generators, Graph, NodeId};
use netsim_sim::{FaultEvent, FaultPlan, SyncEngine};
use std::hint::black_box;

pub const NODES: usize = 1 << 18;
/// Extra random links on top of the spanning backbone (average degree 4).
const EXTRA_EDGES: usize = NODES;
/// Token sources; with [`crate::protocols::TTL`] hops per token they keep
/// about 0.6 % of the nodes active.
const SOURCES: usize = 64;
/// Rounds per job.
pub const ROUNDS: u64 = 512;
const DROP_P: f64 = 0.002;
/// Nodes crashed per job: half of them sources, half anywhere.
const CRASHES: u64 = 4;

fn build_graph(seed: u64, tr: &mut Tracer) -> Graph {
    tr.span(Layer::Graph, || {
        generators::random_connected_sparse(NODES, EXTRA_EDGES, seed)
    })
}

/// `SOURCES` distinct nodes drawn from the seed.
fn sources(seed: u64) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::with_capacity(SOURCES);
    let mut i = 0u64;
    while out.len() < SOURCES {
        let v = (mix(seed ^ mix(i ^ 0xa5a5)) % NODES as u64) as usize;
        if !out.contains(&v) {
            out.push(v);
        }
        i += 1;
    }
    out
}

/// The scripted churn: `CRASHES` nodes crash early in the job and recover
/// at its middle.
fn schedule(seed: u64, sources: &[usize]) -> Vec<FaultEvent> {
    let mut events = Vec::new();
    for i in 0..CRASHES {
        let v = if i % 2 == 0 {
            sources[i as usize]
        } else {
            (mix(seed ^ mix(i ^ 0xc4a5)) % NODES as u64) as usize
        };
        let node = NodeId(v);
        events.push(FaultEvent::Crash {
            round: 64 + 8 * i,
            node,
        });
        events.push(FaultEvent::Recover {
            round: ROUNDS / 2 + 8 * i,
            node,
        });
    }
    events
}

fn plan(seed: u64, events: Vec<FaultEvent>) -> FaultPlan {
    FaultPlan::from_rates(seed, 0.0, DROP_P, 0.0, 0.0).with_events(events)
}

fn build_engine<'g>(
    g: &'g Graph,
    sources: &[usize],
    plan: Option<FaultPlan>,
    tr: &mut Tracer,
) -> SyncEngine<'g, Relay> {
    tr.span(Layer::Engine, || {
        let mut src: Vec<Option<u16>> = vec![None; g.node_count()];
        for (i, &v) in sources.iter().enumerate() {
            src[v] = Some(i as u16);
        }
        let mut eng = SyncEngine::new(g, |v| Relay::new(src[v.index()]));
        eng.enable_sparse_stepping();
        if let Some(plan) = plan {
            eng.set_fault_plan(plan);
        }
        eng
    })
}

/// One relay run of [`ROUNDS`] rounds on a fresh engine.  The engine is
/// built before the clock starts: its construction is set-up work.
fn job<'g>(
    g: &'g Graph,
    sources: &[usize],
    plan: Option<FaultPlan>,
    root: Layer,
    tr: &mut Tracer,
) -> (JobStats, SyncEngine<'g, Relay>) {
    let mut eng = build_engine(g, sources, plan, &mut Tracer::new(false));
    let meter = Meter::start();
    let span = tr.begin(root);
    for _ in 0..ROUNDS {
        tr.span(Layer::Engine, || eng.step_round());
    }
    tr.end(span);
    let stats = meter.stop(*eng.cost(), eng.total_stepped());
    (stats, eng)
}

/// Compares the engine with the replay after the same rounds.
fn check(eng: &SyncEngine<'_, Relay>, replay: &RelayReplay<'_>) -> Result<(), String> {
    let cost = eng.cost();
    if (
        cost.p2p_messages,
        cost.dropped_messages,
        cost.crashed_rounds,
    ) != (replay.sent, replay.dropped, replay.crashed_rounds)
    {
        return Err(format!(
            "relay cost (sent, dropped, crashed) = ({}, {}, {}), replay ({}, {}, {})",
            cost.p2p_messages,
            cost.dropped_messages,
            cost.crashed_rounds,
            replay.sent,
            replay.dropped,
            replay.crashed_rounds
        ));
    }
    for (v, node) in eng.nodes().iter().enumerate() {
        if (node.visits, node.digest) != (replay.visits[v], replay.digest[v]) {
            return Err(format!(
                "relay node {v}: ({}, {:#x}) != replay ({}, {:#x})",
                node.visits, node.digest, replay.visits[v], replay.digest[v]
            ));
        }
    }
    Ok(())
}

pub fn run(cfg: &Config) -> (Tally, Option<Layers>) {
    let mut tally = Tally::new();
    let mut tr = Tracer::new(cfg.trace);
    let srcs = sources(cfg.seed);
    let events = schedule(cfg.seed, &srcs);
    let planned = plan(cfg.seed, events.clone());
    let mut sampler = SetupSampler::new(
        |tr| {
            let g = build_graph(cfg.seed, tr);
            black_box(build_engine(&g, &srcs, Some(planned.clone()), tr));
        },
        &mut tr,
    );
    let setup = Setup::begin(&mut tr);
    let g = build_graph(cfg.seed, &mut tr);
    let eng = build_engine(&g, &srcs, Some(planned.clone()), &mut tr);
    setup.end(&mut tally, &mut tr);
    drop(eng);

    let mut replay = RelayReplay::new(&g, plan(cfg.seed, Vec::new()), &srcs, events);
    replay.step_rounds(ROUNDS);
    closed_loop(cfg.seconds, &mut tr, |tr, phase| {
        let (stats, eng) = job(&g, &srcs, Some(planned.clone()), Layer::Job, tr);
        match check(&eng, &replay) {
            Ok(()) => tally.passed(stats, phase),
            Err(e) => tally.wrong(&e),
        }
        drop(eng);
        if phase == Phase::Traced {
            // The same relay with no plan installed, for the fault layer's
            // per-round cost.
            job(&g, &srcs, None, Layer::Baseline, tr);
        }
        sampler.between_jobs(tr);
    });
    sampler.finish(&mut tally);
    let layers = cfg.trace.then(|| {
        let mut l = Layers::common(&tally, &tr, NODES);
        let planned = median(&tr.durations(Layer::Job));
        let unplanned = median(&tr.durations(Layer::Baseline));
        l.set(
            "fault.overhead_us_per_round",
            (planned - unplanned) / ROUNDS as f64 * 1e6,
        );
        l
    });
    crate::finish_trace(cfg, &tr);
    (tally, layers)
}

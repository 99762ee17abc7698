//! `gossip_dense`: the running-sum gossip on an 8192-node geometric graph,
//! dense stepping, no channel traffic, no fault plan.  The engine's
//! point-to-point path — staging, receiver bucketing, arena delivery — does
//! nearly all the work.  At 8192 nodes the engine's working set is a few
//! MiB, close to the per-core L2.

use crate::harness::{
    cost_delta, Config, JobStats, Layers, Meter, Phase, Setup, SetupSampler, Tally,
};
use crate::protocols::{mix, Gossip};
use crate::trace::{Layer, Tracer};
use crate::{oracle, wire};
use netsim_graph::{generators::Family, Graph, NodeId};
use netsim_sim::SyncEngine;
use std::hint::black_box;

pub const NODES: usize = 8192;
/// Rounds per job; every round but the last moves `2m` messages.
pub const ROUNDS: u32 = 32;

pub fn initial_values(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64).map(|v| mix(seed ^ mix(v))).collect()
}

fn build_graph(seed: u64, tr: &mut Tracer) -> Graph {
    tr.span(Layer::Graph, || Family::Geometric.generate(NODES, seed))
}

fn build_engine<'g>(g: &'g Graph, init: &[u64], tr: &mut Tracer) -> SyncEngine<'g, Gossip> {
    tr.span(Layer::Engine, || {
        SyncEngine::new(g, |v| Gossip::new(init[v.index()], ROUNDS))
    })
}

/// Runs one job on `eng`: [`ROUNDS`] steps from freshly reset states.
/// Returns the job's record; the caller checks the outputs.
fn job(eng: &mut SyncEngine<'_, Gossip>, tr: &mut Tracer) -> JobStats {
    eng.update_nodes(|_, p| p.reset());
    let before = *eng.cost();
    let stepped = eng.total_stepped();
    let meter = Meter::start();
    let span = tr.begin(Layer::Job);
    for _ in 0..ROUNDS {
        tr.span(Layer::Engine, || eng.step_round());
    }
    tr.end(span);
    let cost = cost_delta(eng.cost(), &before);
    meter.stop(cost, eng.total_stepped() - stepped)
}

/// The first node whose final value differs from `expected`, if any.
fn first_mismatch(eng: &SyncEngine<'_, Gossip>, expected: &[u64]) -> Option<(usize, u64, u64)> {
    (0..expected.len())
        .map(|v| (v, eng.node(NodeId(v)).value(), expected[v]))
        .find(|(_, got, want)| got != want)
}

pub fn run(cfg: &Config) -> (Tally, Option<Layers>) {
    let mut tally = Tally::new();
    let mut tr = Tracer::new(cfg.trace);
    let init = initial_values(NODES, cfg.seed);
    let mut sampler = SetupSampler::new(
        |tr| {
            let g = build_graph(cfg.seed, tr);
            black_box(build_engine(&g, &init, tr));
        },
        &mut tr,
    );
    let setup = Setup::begin(&mut tr);
    let g = build_graph(cfg.seed, &mut tr);
    let mut eng = build_engine(&g, &init, &mut tr);
    setup.end(&mut tally, &mut tr);

    let expected = oracle::gossip(&g, &init, ROUNDS);
    // The wire layer is measured beside this workload, in its traced run.
    let wire_graphs = cfg.trace.then(wire::Graphs::new);
    let mut companion = wire_graphs
        .as_ref()
        .map(|gs| wire::Companion::new(gs, cfg.seed));
    crate::harness::closed_loop(cfg.seconds, &mut tr, |tr, phase| {
        let stats = job(&mut eng, tr);
        if !eng.is_quiescent() {
            tally.wrong("gossip job left messages in flight");
        } else if let Some((v, got, want)) = first_mismatch(&eng, &expected) {
            tally.wrong(&format!("gossip node {v}: {got:#x} != {want:#x}"));
        } else if stats.cost.rounds != u64::from(ROUNDS) {
            tally.wrong(&format!("gossip ran {} rounds", stats.cost.rounds));
        } else {
            tally.passed(stats, phase);
        }
        if let (Phase::Traced, Some(c)) = (phase, companion.as_mut()) {
            c.run(tr, &mut tally);
        }
        sampler.between_jobs(tr);
    });
    sampler.finish(&mut tally);
    let layers = companion.map(|c| {
        let mut l = Layers::common(&tally, &tr, NODES);
        c.layers(&tr, &mut l);
        l
    });
    crate::finish_trace(cfg, &tr);
    (tally, layers)
}

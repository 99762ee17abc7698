//! The wire layer, measured beside `gossip_dense` in its traced run: the
//! running-sum gossip on a 1024-node ring and a K = 4 channel-sharded sum
//! on a 512-node ring over two in-process loopback UDP hosts
//! (`netsim_io::WireNet`), each job paired with the same protocols on the
//! flat engine.  The work sits in frame encoding, datagram batching,
//! syscalls and barrier collection, with p2p-heavy and slot-heavy traffic.
//!
//! It is not a workload of its own: on the reference host its job time
//! moved between about 9 and 15 ms from one process to the next, wider
//! than any bound an end-to-end metric may have.

use crate::harness::{cost_delta, median, percentile, ratio, JobStats, Layers, Meter, Tally};
use crate::protocols::{mix, Gossip};
use crate::trace::{Layer, Tracer};
use crate::{gossip, oracle};
use netsim_graph::{generators, Graph, NodeId};
use netsim_io::WireNet;
use netsim_sim::{protocols::ChannelShardedSum, CostAccount, SyncEngine};

const HOSTS: u16 = 2;
const GOSSIP_NODES: usize = 1024;
const GOSSIP_ROUNDS: u32 = 16;
const SUM_NODES: usize = 512;
const K: u16 = 4;

fn sum_value(seed: u64, v: usize) -> u64 {
    mix(seed ^ mix(v as u64 ^ 0x3c3c))
}

fn sum_node(seed: u64, v: NodeId) -> ChannelShardedSum {
    ChannelShardedSum::new(v, SUM_NODES, K, sum_value(seed, v.index()))
}

pub struct Graphs {
    gossip: Graph,
    sum: Graph,
}

impl Graphs {
    pub fn new() -> Self {
        Graphs {
            gossip: generators::ring(GOSSIP_NODES),
            sum: generators::ring(SUM_NODES),
        }
    }
}

struct Nets<'g> {
    gossip: WireNet<'g, Gossip>,
    sum: WireNet<'g, ChannelShardedSum>,
}

fn build_nets<'g>(gs: &'g Graphs, init: &[u64], seed: u64) -> Nets<'g> {
    Nets {
        gossip: WireNet::new(&gs.gossip, HOSTS, |v| {
            Gossip::new(init[v.index()], GOSSIP_ROUNDS)
        }),
        sum: WireNet::with_channels(
            &gs.sum,
            ChannelShardedSum::channel_set(SUM_NODES, K),
            HOSTS,
            |v| sum_node(seed, v),
        ),
    }
}

/// The same two protocols on the flat engine: the reference the wire's
/// states and costs must equal, and the baseline of the wire's overhead.
struct Flat<'g> {
    gossip: SyncEngine<'g, Gossip>,
    sum: SyncEngine<'g, ChannelShardedSum>,
}

/// Rounds a sharded-sum run may take before it counts as stuck.
const SUM_ROUND_LIMIT: u64 = 4 * SUM_NODES as u64;

fn wire_job(nets: &mut Nets<'_>, seed: u64, tr: &mut Tracer) -> (JobStats, u64) {
    nets.gossip.update_nodes(|_, p| p.reset());
    nets.sum.update_nodes(|v, p| *p = sum_node(seed, v));
    let (g0, s0) = (*nets.gossip.cost(), *nets.sum.cost());
    let bytes = nets.gossip.bytes_sent() + nets.sum.bytes_sent();
    let meter = Meter::start();
    let span = tr.begin(Layer::Companion);
    for _ in 0..GOSSIP_ROUNDS {
        tr.span(Layer::Wire, || nets.gossip.step_round());
    }
    let limit = nets.sum.round() + SUM_ROUND_LIMIT;
    while !nets.sum.is_quiescent() && nets.sum.round() < limit {
        tr.span(Layer::Wire, || nets.sum.step_round());
    }
    tr.end(span);
    let cost = cost_delta(nets.gossip.cost(), &g0) + cost_delta(nets.sum.cost(), &s0);
    let stats = meter.stop(cost, 0);
    let bytes = nets.gossip.bytes_sent() + nets.sum.bytes_sent() - bytes;
    (stats, bytes)
}

fn flat_job(flat: &mut Flat<'_>, seed: u64, tr: &mut Tracer) -> JobStats {
    flat.gossip.update_nodes(|_, p| p.reset());
    flat.sum.update_nodes(|v, p| *p = sum_node(seed, v));
    let (g0, s0) = (*flat.gossip.cost(), *flat.sum.cost());
    let stepped = flat.gossip.total_stepped() + flat.sum.total_stepped();
    let meter = Meter::start();
    let span = tr.begin(Layer::Baseline);
    for _ in 0..GOSSIP_ROUNDS {
        tr.span(Layer::Engine, || flat.gossip.step_round());
    }
    let limit = flat.sum.round() + SUM_ROUND_LIMIT;
    while !flat.sum.is_quiescent() && flat.sum.round() < limit {
        tr.span(Layer::Engine, || flat.sum.step_round());
    }
    tr.end(span);
    let cost = cost_delta(flat.gossip.cost(), &g0) + cost_delta(flat.sum.cost(), &s0);
    let stepped = flat.gossip.total_stepped() + flat.sum.total_stepped() - stepped;
    meter.stop(cost, stepped)
}

struct Expected {
    gossip: Vec<u64>,
    shard_sums: Vec<u64>,
    cost: CostAccount,
}

fn check(nets: &Nets<'_>, stats: &JobStats, want: &Expected) -> Result<(), String> {
    if stats.cost != want.cost {
        return Err(format!(
            "wire cost {:?} != flat {:?}",
            stats.cost, want.cost
        ));
    }
    for (v, &x) in want.gossip.iter().enumerate() {
        let got = nets.gossip.node(NodeId(v)).value();
        if got != x {
            return Err(format!("wire gossip node {v}: {got:#x} != {x:#x}"));
        }
    }
    for v in 0..SUM_NODES {
        let got = nets.sum.node(NodeId(v)).sum();
        let want = want.shard_sums[v % K as usize];
        if got != want {
            return Err(format!("wire shard sum at node {v}: {got} != {want}"));
        }
    }
    Ok(())
}

/// The wire jobs run beside a workload, with their reference.
pub struct Companion<'g> {
    seed: u64,
    nets: Nets<'g>,
    flat: Flat<'g>,
    want: Expected,
    bytes: Vec<f64>,
}

impl<'g> Companion<'g> {
    pub fn new(gs: &'g Graphs, seed: u64) -> Self {
        let init = gossip::initial_values(GOSSIP_NODES, seed);
        let mut flat = Flat {
            gossip: SyncEngine::new(&gs.gossip, |v| Gossip::new(init[v.index()], GOSSIP_ROUNDS)),
            sum: SyncEngine::with_channels(
                &gs.sum,
                ChannelShardedSum::channel_set(SUM_NODES, K),
                |v| sum_node(seed, v),
            ),
        };
        let reference = flat_job(&mut flat, seed, &mut Tracer::new(false));
        let mut shard_sums = vec![0u64; K as usize];
        for v in 0..SUM_NODES {
            let s = &mut shard_sums[v % K as usize];
            *s = s.wrapping_add(sum_value(seed, v));
        }
        Companion {
            seed,
            nets: build_nets(gs, &init, seed),
            flat,
            want: Expected {
                gossip: oracle::gossip(&gs.gossip, &init, GOSSIP_ROUNDS),
                shard_sums,
                cost: reference.cost,
            },
            bytes: Vec::new(),
        }
    }

    /// One wire job, checked against the oracles, then the same job on the
    /// flat engine.  The wire job counts as an attempted operation.
    pub fn run(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        let (stats, bytes) = wire_job(&mut self.nets, self.seed, tr);
        match check(&self.nets, &stats, &self.want) {
            Ok(()) => {
                tally.attempted += 1;
                self.bytes.push(bytes as f64);
            }
            Err(e) => tally.wrong(&e),
        }
        flat_job(&mut self.flat, self.seed, tr);
    }

    /// The wire layer's metrics.
    pub fn layers(&self, tr: &Tracer, l: &mut Layers) {
        let rounds = self.want.cost.rounds as f64;
        let jobs = self.bytes.len().max(1) as f64;
        let wire_us: Vec<f64> = tr
            .durations_under(Layer::Wire, Layer::Companion)
            .iter()
            .map(|s| s * 1e6)
            .collect();
        l.set("wire.round_us_p50", median(&wire_us));
        l.set("wire.round_us_p99", percentile(&wire_us, 99.0));
        let per_job_bytes = median(&self.bytes);
        l.set("wire.bytes_per_round", ratio(per_job_bytes, rounds));
        let c = &self.want.cost;
        l.set(
            "wire.bytes_per_msg",
            ratio(
                per_job_bytes,
                (c.p2p_messages + c.channel_writes + c.lane_writes) as f64,
            ),
        );
        let wire_job_s = median(&tr.durations(Layer::Companion));
        let flat_job_s = median(&tr.durations(Layer::Baseline));
        l.set(
            "wire.overhead_us_per_round",
            (wire_job_s - flat_job_s) / rounds * 1e6,
        );
        l.set(
            "wire.self_s",
            tr.self_time(Layer::Wire, Some(Layer::Companion)) / jobs,
        );
    }
}

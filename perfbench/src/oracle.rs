//! Correctness oracles, kept apart from the program: each recomputes the
//! expected output with plain loops over the inputs, and runs outside the
//! timed region.

use crate::protocols::{next_hop, token, visit_digest, TTL};
use netsim_graph::{EdgeId, Graph, NodeId};
use netsim_sim::{FaultEvent, FaultPlan};

/// Final gossip values: `x ← x + A·x` applied `rounds − 1` times, over the
/// CSR edge list.
pub fn gossip(g: &Graph, init: &[u64], rounds: u32) -> Vec<u64> {
    let edges: Vec<(usize, usize)> = g.edges().map(|e| (e.u.index(), e.v.index())).collect();
    let mut x = init.to_vec();
    for _ in 1..rounds {
        let mut next = x.clone();
        for &(u, v) in &edges {
            next[u] = next[u].wrapping_add(x[v]);
            next[v] = next[v].wrapping_add(x[u]);
        }
        x = next;
    }
    x
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// `Err` unless `edges` span `g` as a tree whose weight equals that of
/// `netsim_graph::mst::kruskal`.
pub fn mst(g: &Graph, edges: &[EdgeId], kruskal_weight: u128) -> Result<(), String> {
    let n = g.node_count();
    if edges.len() + 1 != n {
        return Err(format!("{} edges for {n} nodes", edges.len()));
    }
    let mut parent: Vec<usize> = (0..n).collect();
    let mut weight = 0u128;
    for &e in edges {
        let edge = g.edge(e);
        let (a, b) = (
            find(&mut parent, edge.u.index()),
            find(&mut parent, edge.v.index()),
        );
        if a == b {
            return Err(format!("edge {} closes a cycle", e.index()));
        }
        parent[a] = b;
        weight += u128::from(edge.weight);
    }
    if weight != kruskal_weight {
        return Err(format!("weight {weight} != kruskal {kruskal_weight}"));
    }
    Ok(())
}

/// `Err` unless every tree of the partition forest has at least `target`
/// nodes (or the forest is one tree).
pub fn partition(
    forest: &netsim_graph::SpanningForest,
    n: usize,
    target: usize,
) -> Result<(), String> {
    if forest.node_count() != n {
        return Err(format!(
            "forest covers {} of {n} nodes",
            forest.node_count()
        ));
    }
    let mut size = vec![0usize; n];
    for v in 0..n {
        size[forest.root_of(NodeId(v)).index()] += 1;
    }
    let trees: Vec<usize> = size.into_iter().filter(|&s| s > 0).collect();
    match trees.iter().min() {
        Some(&small) if trees.len() > 1 && small < target => {
            Err(format!("a fragment of {small} nodes, target {target}"))
        }
        _ => Ok(()),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Life {
    Up,
    Booting,
    Down,
}

/// A replay of the token relay in plain code: the same walks, with drops
/// taken from the public `FaultPlan::drops_message` draw and crashes from
/// the scripted schedule, so node counters and message counts can be
/// compared with the engine's after every job.
pub struct RelayReplay<'g> {
    g: &'g Graph,
    plan: FaultPlan,
    sources: Vec<(usize, u16)>,
    events: Vec<FaultEvent>,
    next_event: usize,
    life: Vec<Life>,
    booting: Vec<usize>,
    down: u64,
    inbox: Vec<(usize, u64)>,
    round: u64,
    pub visits: Vec<u32>,
    pub digest: Vec<u64>,
    pub sent: u64,
    pub dropped: u64,
    pub crashed_rounds: u64,
}

impl<'g> RelayReplay<'g> {
    /// `events` in the order the plan applies them: stable-sorted by round.
    pub fn new(
        g: &'g Graph,
        plan: FaultPlan,
        sources: &[usize],
        mut events: Vec<FaultEvent>,
    ) -> Self {
        let n = g.node_count();
        events.sort_by_key(|e| match *e {
            FaultEvent::Crash { round, .. } | FaultEvent::Recover { round, .. } => round,
        });
        RelayReplay {
            g,
            plan,
            sources: sources
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, i as u16))
                .collect(),
            events,
            next_event: 0,
            life: vec![Life::Up; n],
            booting: Vec::new(),
            down: 0,
            inbox: Vec::new(),
            round: 0,
            visits: vec![0; n],
            digest: vec![0; n],
            sent: 0,
            dropped: 0,
            crashed_rounds: 0,
        }
    }

    fn set(&mut self, v: usize, to: Life) {
        let was_down = self.life[v] != Life::Up;
        self.life[v] = to;
        let is_down = to != Life::Up;
        self.down = self.down + u64::from(is_down) - u64::from(was_down);
    }

    /// Lifecycles at the start of the round: promotions of last round's
    /// booting nodes, then this round's scripted events.
    fn apply_lifecycle(&mut self) {
        for v in std::mem::take(&mut self.booting) {
            if self.life[v] == Life::Booting {
                self.set(v, Life::Up);
            }
        }
        while let Some(&ev) = self.events.get(self.next_event) {
            match ev {
                FaultEvent::Crash { round, node } if round == self.round => {
                    if self.life[node.index()] != Life::Down {
                        self.set(node.index(), Life::Down);
                    }
                }
                FaultEvent::Recover { round, node } if round == self.round => {
                    if self.life[node.index()] == Life::Down {
                        self.set(node.index(), Life::Booting);
                        self.booting.push(node.index());
                    }
                }
                _ => break,
            }
            self.next_event += 1;
        }
        self.crashed_rounds += self.down;
    }

    pub fn step_rounds(&mut self, rounds: u64) {
        let mut staged: Vec<(usize, usize, u64)> = Vec::new();
        for _ in 0..rounds {
            self.apply_lifecycle();
            staged.clear();
            for &(v, tok) in &self.inbox {
                if self.life[v] != Life::Up {
                    continue;
                }
                self.visits[v] += 1;
                self.digest[v] = self.digest[v].wrapping_add(visit_digest(tok));
                if tok & 0xff < TTL - 1 {
                    let next = tok + 1;
                    let nbrs = self.g.neighbor_targets(NodeId(v));
                    staged.push((v, nbrs[next_hop(next, nbrs.len())].index(), next));
                }
            }
            for &(v, src) in &self.sources {
                if self.life[v] == Life::Up {
                    let tok = token(self.round, src, 0);
                    let nbrs = self.g.neighbor_targets(NodeId(v));
                    staged.push((v, nbrs[next_hop(tok, nbrs.len())].index(), tok));
                }
            }
            self.sent += staged.len() as u64;
            self.inbox.clear();
            for &(from, to, tok) in &staged {
                if self
                    .plan
                    .drops_message(self.round, NodeId(from), NodeId(to))
                {
                    self.dropped += 1;
                } else {
                    self.inbox.push((to, tok));
                }
            }
            self.round += 1;
        }
    }
}

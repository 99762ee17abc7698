//! The benchmark's own protocols, written against the public `Protocol`
//! trait: a dense running-sum gossip and a sparse token relay.

use netsim_sim::{Protocol, RoundIo};

/// SplitMix64 finaliser: the benchmark's only source of pseudo-randomness,
/// so every input is a pure function of `--seed`.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Every node broadcasts its running sum every round and adds what its
/// neighbours sent: `x ← x + Σ_{u ∈ N(v)} x_u`, for `rounds` steps.  The
/// last step sends nothing, so a finished job leaves nothing in flight and
/// the same engine can run the next job after [`Gossip::reset`].
#[derive(Clone, Debug)]
pub struct Gossip {
    init: u64,
    x: u64,
    step: u32,
    rounds: u32,
}

impl Gossip {
    pub fn new(init: u64, rounds: u32) -> Self {
        Gossip {
            init,
            x: init,
            step: 0,
            rounds,
        }
    }

    pub fn reset(&mut self) {
        self.x = self.init;
        self.step = 0;
    }

    pub fn value(&self) -> u64 {
        self.x
    }
}

impl Protocol for Gossip {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        if self.step >= self.rounds {
            return;
        }
        let heard = io
            .inbox()
            .iter()
            .fold(0u64, |acc, (_, &m)| acc.wrapping_add(m));
        self.x = self.x.wrapping_add(heard);
        self.step += 1;
        if self.step < self.rounds {
            io.send_all(self.x);
        }
    }

    fn is_done(&self) -> bool {
        self.step >= self.rounds
    }
}

/// Hops a relay token makes before it retires.
pub const TTL: u64 = 24;

/// A token is `birth_round << 24 | source << 8 | hop`.
pub fn token(birth_round: u64, source: u16, hop: u64) -> u64 {
    (birth_round << 24) | (u64::from(source) << 8) | hop
}

/// The neighbour index a token at `hop` moves to from a node of `degree`.
pub fn next_hop(tok: u64, degree: usize) -> usize {
    (mix(tok) % degree as u64) as usize
}

/// What a node folds from a token it receives.
pub fn visit_digest(tok: u64) -> u64 {
    mix(tok ^ 0x5151_5151)
}

/// Sparse token relay: each source node emits one token per round; a node
/// that receives a token records it and forwards it to a neighbour picked
/// from the token alone, until the token has made [`TTL`] hops.  Idle nodes
/// do nothing (frontier-safe); sources re-arm themselves with `wake_me`.
#[derive(Clone, Debug, Default)]
pub struct Relay {
    source: Option<u16>,
    pub visits: u32,
    pub digest: u64,
}

impl Relay {
    pub fn new(source: Option<u16>) -> Self {
        Relay {
            source,
            visits: 0,
            digest: 0,
        }
    }
}

impl Protocol for Relay {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        let nbrs = io.neighbors();
        for (_, &tok) in io.inbox().iter() {
            self.visits += 1;
            self.digest = self.digest.wrapping_add(visit_digest(tok));
            if tok & 0xff < TTL - 1 {
                let next = tok + 1;
                io.send(nbrs.target(next_hop(next, nbrs.len())), next);
            }
        }
        if let Some(src) = self.source {
            let tok = token(io.round(), src, 0);
            io.send(nbrs.target(next_hop(tok, nbrs.len())), tok);
            io.wake_me();
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

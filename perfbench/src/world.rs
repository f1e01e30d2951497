//! Seeded input worlds and an independent oracle of the database state.
//!
//! The engine only ever sees what is generated here: the compile-time
//! structure, the formula, and batches of Gaifman-preserving edge flips.
//! [`Db`] tracks the same flips by plain bookkeeping, so every answer the
//! engine gives can be checked without trusting the engine.

use crate::rng::Rng;
use sparse_agg::core_engine::TupleUpdate;
use sparse_agg::logic::{Formula, Var};
use sparse_agg::structure::{Elem, RelId, Signature, Structure};
use std::collections::HashMap;
use std::sync::Arc;

/// The two query shapes the workloads use.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `E(x,y) ∧ E(y,z) ∧ x≠z`: directed two-paths, non-local and large.
    TwoPath,
    /// `E(x,y) ∧ S(x)`: edges leaving `S`, component-local and small.
    EdgeFromS,
}

pub struct World {
    pub a: Arc<Structure>,
    pub phi: Formula,
    pub query: Query,
    pub e: RelId,
    pub s: Option<RelId>,
    /// Every directed `E` tuple of the compile-time structure; flips only
    /// ever toggle these, so every update preserves the Gaifman graph.
    pub edges: Vec<[Elem; 2]>,
    pub n: usize,
    /// Vertices are grouped in `components` blocks of `block` consecutive
    /// ids (one block spanning everything for the random graph).
    pub components: usize,
    pub block: usize,
}

impl World {
    /// `G(n, 2n)` without loops, each undirected edge stored in both
    /// directions, queried for directed two-paths.
    pub fn random_graph(n: usize, seed: u64) -> World {
        let mut rng = Rng::new(seed, 1);
        let mut sig = Signature::new();
        let e = sig.add_relation("E", 2);
        let mut a = Structure::new(Arc::new(sig), n);
        let mut placed = 0;
        while placed < 2 * n {
            let (u, v) = (rng.below(n as u64) as Elem, rng.below(n as u64) as Elem);
            if u != v {
                a.insert(e, &[u, v]);
                a.insert(e, &[v, u]);
                placed += 1;
            }
        }
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let phi = Formula::Rel(e, vec![x, y])
            .and(Formula::Rel(e, vec![y, z]))
            .and(Formula::neq(x, z));
        World {
            edges: World::edges(&a, e),
            a: Arc::new(a),
            phi,
            query: Query::TwoPath,
            e,
            s: None,
            n,
            components: 1,
            block: n,
        }
    }

    /// `components` disjoint random recursive trees of `block` vertices,
    /// symmetric `E`, `S` = the even vertices, queried for `E(x,y) ∧ S(x)`.
    pub fn forest(components: usize, block: usize, seed: u64) -> World {
        let mut rng = Rng::new(seed, 2);
        let n = components * block;
        let mut sig = Signature::new();
        let e = sig.add_relation("E", 2);
        let s = sig.add_relation("S", 1);
        let mut a = Structure::new(Arc::new(sig), n);
        for c in 0..components {
            let base = (c * block) as Elem;
            for i in 1..block as u64 {
                let u = base + i as Elem;
                let v = base + rng.below(i) as Elem;
                a.insert(e, &[u, v]);
                a.insert(e, &[v, u]);
            }
        }
        for v in (0..n as Elem).step_by(2) {
            a.insert(s, &[v]);
        }
        let phi = Formula::Rel(e, vec![Var(0), Var(1)]).and(Formula::Rel(s, vec![Var(0)]));
        let edges = World::edges(&a, e);
        World {
            edges,
            a: Arc::new(a),
            phi,
            query: Query::EdgeFromS,
            e,
            s: Some(s),
            n,
            components,
            block,
        }
    }

    /// `k` edge indices to receive the hot share of churn flips.
    pub fn draw_hot(&self, rng: &mut Rng, k: usize) -> Vec<usize> {
        (0..k)
            .map(|_| rng.below(self.edges.len() as u64) as usize)
            .collect()
    }

    /// Every directed `E` tuple of `a`.
    fn edges(a: &Structure, e: RelId) -> Vec<[Elem; 2]> {
        a.relation(e)
            .iter()
            .map(|t| [t.as_slice()[0], t.as_slice()[1]])
            .collect()
    }

    pub fn arity(&self) -> usize {
        match self.query {
            Query::TwoPath => 3,
            Query::EdgeFromS => 2,
        }
    }
}

/// The current database, maintained next to the engine: presence of every
/// flippable edge, degrees, and the exact answer count.
///
/// Uniform flips keep the database near its compile-time state: they
/// delete uniformly random present edges until a twentieth of the edges
/// is absent, and from then on restore a uniformly random absent edge
/// whenever that share is reached. The database, and with it every cost,
/// is then the same at the end of a run as at its start, however many
/// rounds the window held.
pub struct Db {
    query: Query,
    e: RelId,
    s: Option<RelId>,
    n: usize,
    edges: Vec<[Elem; 2]>,
    present: Vec<bool>,
    /// The absent edges, and each edge's position among them.
    absent: Vec<usize>,
    slot: Vec<usize>,
    index: HashMap<(Elem, Elem), usize>,
    out_deg: Vec<u64>,
    in_deg: Vec<u64>,
    count: u64,
}

impl Db {
    /// The compile-time database: every edge present.
    pub fn new(w: &World) -> Db {
        let mut db = Db {
            query: w.query,
            e: w.e,
            s: w.s,
            n: w.n,
            edges: w.edges.clone(),
            present: vec![false; w.edges.len()],
            absent: (0..w.edges.len()).collect(),
            slot: (0..w.edges.len()).collect(),
            index: w
                .edges
                .iter()
                .enumerate()
                .map(|(i, &[u, v])| ((u, v), i))
                .collect(),
            out_deg: vec![0; w.n],
            in_deg: vec![0; w.n],
            count: 0,
        };
        for i in 0..db.edges.len() {
            db.toggle(i);
        }
        db
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    fn holds(&self, u: Elem, v: Elem) -> bool {
        self.index.get(&(u, v)).is_some_and(|&i| self.present[i])
    }

    /// Answers that `(u,v)` takes part in, with `(u,v)` itself absent.
    fn answers_through(&self, u: Elem, v: Elem) -> u64 {
        match self.query {
            // (u,v) as the first atom: z ∈ out(v) \ {u}; as the second
            // atom: x ∈ in(u) \ {v}. Without loops it cannot be both.
            Query::TwoPath => {
                let back = self.holds(v, u) as u64;
                self.out_deg[v as usize] - back + self.in_deg[u as usize] - back
            }
            Query::EdgeFromS => u.is_multiple_of(2) as u64,
        }
    }

    fn toggle(&mut self, i: usize) -> bool {
        let [u, v] = self.edges[i];
        let now = !self.present[i];
        if now {
            self.count += self.answers_through(u, v);
            self.out_deg[u as usize] += 1;
            self.in_deg[v as usize] += 1;
        } else {
            self.out_deg[u as usize] -= 1;
            self.in_deg[v as usize] -= 1;
        }
        self.present[i] = now;
        if now {
            let last = self.absent.pop().expect("an absent edge was toggled on");
            if last != i {
                self.absent[self.slot[i]] = last;
                self.slot[last] = self.slot[i];
            }
        } else {
            self.slot[i] = self.absent.len();
            self.absent.push(i);
        }
        if !now {
            self.count -= self.answers_through(u, v);
        }
        now
    }

    /// How many absent edges uniform flips keep: one in twenty.
    fn steady_absent(&self) -> usize {
        self.edges.len() / 20
    }

    /// Whether uniform flips have thinned the database to its steady
    /// state, where the absent edges number the steady count or one less.
    pub fn settled(&self) -> bool {
        self.absent.len() + 1 >= self.steady_absent()
    }

    /// The edge of a uniform flip: a random present edge to delete while
    /// fewer than the steady count are absent, else a random absent edge
    /// to restore.
    fn uniform_edge(&self, rng: &mut Rng) -> usize {
        if self.absent.len() >= self.steady_absent() {
            return self.absent[rng.below(self.absent.len() as u64) as usize];
        }
        loop {
            let i = rng.below(self.edges.len() as u64) as usize;
            if self.present[i] {
                return i;
            }
        }
    }

    /// `size` flips, applied here as they are generated; `hot_share` of
    /// them land on `hot` (if any), the rest are uniform flips.
    pub fn flip_batch(
        &mut self,
        rng: &mut Rng,
        size: usize,
        hot: &[usize],
        hot_share: f64,
    ) -> Vec<TupleUpdate> {
        (0..size)
            .map(|_| {
                let i = if !hot.is_empty() && rng.chance(hot_share) {
                    hot[rng.below(hot.len() as u64) as usize]
                } else {
                    self.uniform_edge(rng)
                };
                TupleUpdate {
                    rel: self.e,
                    tuple: self.edges[i].to_vec(),
                    present: self.toggle(i),
                }
            })
            .collect()
    }

    /// Whether `t` is an answer of the world's query in the current state.
    pub fn is_answer(&self, t: &[Elem]) -> bool {
        match (self.query, t) {
            (Query::TwoPath, &[x, y, z]) => x != z && self.holds(x, y) && self.holds(y, z),
            (Query::EdgeFromS, &[x, y]) => x.is_multiple_of(2) && self.holds(x, y),
            _ => false,
        }
    }

    /// The current database as a structure, for a fresh build.
    pub fn structure(&self, sig: &Arc<Signature>) -> Structure {
        let mut a = Structure::new(sig.clone(), self.n);
        for (i, &[u, v]) in self.edges.iter().enumerate() {
            if self.present[i] {
                a.insert(self.e, &[u, v]);
            }
        }
        if let Some(s) = self.s {
            for v in (0..self.n as Elem).step_by(2) {
                a.insert(s, &[v]);
            }
        }
        a
    }
}

//! Property tests pinning the indexed DAG queries to digest-walking
//! oracles.
//!
//! The slot-interned store answers `reachable` with a level walk over
//! per-vertex parent-author masks, `links_to_author` with a probe of
//! that mask, and `causal_sub_dag` with a level walk over integer
//! adjacency. They are checked here against independent implementations
//! that work the way the pre-index store did — breadth-first over
//! digests through the public API (`testkit::reachable_bfs` and the
//! sub-DAG oracle below) — on randomized DAGs with skipped authors,
//! withheld edges, multi-round gaps, GC below the anchor, and
//! equivocation attempts.

use hh_crypto::Digest;
use hh_dag::testkit::{reachable_bfs, DagBuilder};
use hh_dag::Dag;
use hh_types::{Block, Committee, Round, ValidatorId, Vertex};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// SplitMix64 — the shape generator, seeded per case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next() % bound
        }
    }
}

/// Builds a random structurally valid DAG: every round may drop up to
/// `f` authors entirely (crash shape — consecutive drops of the same
/// author produce multi-round gaps) and every present author may
/// withhold edges to a few previous-round vertices (vote-withholding
/// shape), always keeping parent stake at quorum.
fn random_dag(n: usize, rounds: usize, seed: u64) -> Dag {
    let committee = Committee::new_equal_stake(n);
    let quorum = committee.quorum_threshold().0 as usize;
    let f = n - quorum;
    let mut rng = Mix(seed);
    let mut b = DagBuilder::new(committee.clone());
    b.extend_full_rounds(1);
    let mut prev_present = n;
    for _ in 1..rounds {
        let absent_count = rng.below(f as u64 + 1) as usize;
        let mut absent: Vec<ValidatorId> = Vec::new();
        while absent.len() < absent_count {
            let candidate = ValidatorId(rng.below(n as u64) as u16);
            if !absent.contains(&candidate) {
                absent.push(candidate);
            }
        }
        let authors: Vec<ValidatorId> = committee.ids().filter(|id| !absent.contains(id)).collect();
        // Each author may exclude up to `prev_present - quorum` parents.
        let budget = prev_present - quorum;
        let mut exclusions: Vec<Vec<ValidatorId>> = Vec::new();
        for _ in &authors {
            let count = rng.below(budget as u64 + 1) as usize;
            let mut excluded = Vec::new();
            while excluded.len() < count {
                let candidate = ValidatorId(rng.below(n as u64) as u16);
                if !excluded.contains(&candidate) {
                    excluded.push(candidate);
                }
            }
            exclusions.push(excluded);
        }
        let authors_for_closure = authors.clone();
        b.extend_round_custom(&authors, move |author| {
            let idx = authors_for_closure.iter().position(|a| *a == author).expect("author");
            Some(exclusions[idx].clone())
        });
        prev_present = authors.len();
    }
    b.into_dag()
}

/// The pre-index sub-DAG traversal: BFS over digests, then the
/// deterministic `(round, author)` sort its consumers used to apply.
fn causal_sub_dag_oracle(
    dag: &Dag,
    anchor: &Vertex,
    is_ordered: impl Fn(&Digest) -> bool,
) -> Vec<Arc<Vertex>> {
    let mut out = Vec::new();
    let mut seen: HashSet<Digest> = HashSet::new();
    let mut frontier: VecDeque<Arc<Vertex>> = VecDeque::new();
    if let Some(a) = dag.get(&anchor.digest()) {
        if !is_ordered(&a.digest()) {
            seen.insert(a.digest());
            frontier.push_back(a.clone());
        }
    }
    while let Some(v) = frontier.pop_front() {
        for parent in v.parents() {
            if let Some(pv) = dag.get(parent) {
                if !is_ordered(parent) && seen.insert(*parent) {
                    frontier.push_back(pv.clone());
                }
            }
        }
        out.push(v);
    }
    out.sort_by_key(|v| (v.round(), v.author()));
    out
}

fn all_vertices(dag: &Dag) -> Vec<Arc<Vertex>> {
    let mut out = Vec::new();
    let mut r = dag.gc_round();
    while let Some(top) = dag.highest_round() {
        if r > top {
            break;
        }
        out.extend(dag.round_vertices(r).cloned());
        r = r.next();
    }
    out
}

fn digests(vs: &[Arc<Vertex>]) -> Vec<Digest> {
    vs.iter().map(|v| v.digest()).collect()
}

/// Every `links_to_author` answer of every stored vertex, in
/// `(round, author, linked author)` order.
fn vote_edges(dag: &Dag) -> Vec<(Round, ValidatorId, ValidatorId, bool)> {
    let mut out = Vec::new();
    for v in all_vertices(dag) {
        for a in dag.committee().ids() {
            out.push((v.round(), v.author(), a, dag.links_to_author(&v, a)));
        }
    }
    out
}

/// Checks every query of `dag` against the oracles, pairwise over all
/// stored vertices; `reachable` at full depth.
fn check_dag(dag: &Dag, rng: &mut Mix) {
    let vertices = all_vertices(dag);
    for from in &vertices {
        for to in &vertices {
            let expected = reachable_bfs(dag, from, to);
            assert_eq!(dag.reachable(from, to), expected, "level walk vs oracle: {from} -> {to}");
        }
    }

    // Sub-DAG equivalence from every vertex of the top two rounds, under
    // (a) nothing ordered, (b) a committed prefix below a random round
    // plus random extra ordered vertices.
    let top = dag.highest_round().expect("non-empty");
    let prefix = Round(dag.gc_round().0 + rng.below(top.0 - dag.gc_round().0 + 1));
    let mut ordered: HashSet<Digest> =
        vertices.iter().filter(|v| v.round() < prefix).map(|v| v.digest()).collect();
    for v in &vertices {
        if rng.below(8) == 0 {
            ordered.insert(v.digest());
        }
    }
    for anchor in vertices.iter().filter(|v| v.round().0 + 1 >= top.0) {
        let fresh = dag.causal_sub_dag(anchor, |_| false);
        assert_eq!(
            digests(&fresh),
            digests(&causal_sub_dag_oracle(dag, anchor, |_| false)),
            "full history from {anchor}"
        );
        let pruned = dag.causal_sub_dag(anchor, |d| ordered.contains(d));
        assert_eq!(
            digests(&pruned),
            digests(&causal_sub_dag_oracle(dag, anchor, |d| ordered.contains(d))),
            "pruned history from {anchor} (prefix {prefix})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized shapes: skipped authors, withheld edges, multi-round
    /// gaps. Level-walk `reachable` and the indexed `causal_sub_dag` must
    /// match the digest-BFS oracles exactly.
    fn indexed_queries_match_oracles(
        n in 4usize..8,
        rounds in 2usize..11,
        seed in any::<u64>(),
    ) {
        let dag = random_dag(n, rounds, seed);
        check_dag(&dag, &mut Mix(seed ^ 0xDEAD_BEEF));
    }

    /// GC below the anchor retires and recycles slots; every query must
    /// match the oracles at full depth both before and after, and vote
    /// edges must not flicker when the linked round is collected.
    fn queries_match_oracles_after_gc(
        n in 4usize..8,
        rounds in 5usize..11,
        seed in any::<u64>(),
    ) {
        let mut dag = random_dag(n, rounds, seed);
        let mut rng = Mix(seed ^ 0x5EED);
        check_dag(&dag, &mut rng);
        let horizon = Round(1 + rng.below(rounds as u64 - 2));
        let edges: Vec<_> =
            vote_edges(&dag).into_iter().filter(|(r, ..)| *r >= horizon).collect();
        for &(round, author, linked, answer) in &edges {
            let v = dag.vertex_by_author(round, author).expect("stored");
            let scan = round.0 > 0
                && dag
                    .vertex_by_author(round.prev(), linked)
                    .is_some_and(|p| v.has_parent(&p.digest()));
            prop_assert_eq!(answer, scan, "links_to_author vs parent scan: {} -> {}", v, linked);
        }
        dag.gc(horizon);
        prop_assert_eq!(dag.gc_round(), horizon);
        prop_assert_eq!(vote_edges(&dag), edges, "vote edges changed under gc");
        check_dag(&dag, &mut rng);
    }

    /// Equivocation duplicates are rejected without disturbing the index:
    /// the stored twin keeps answering exactly like the oracle, the
    /// foreign twin is unreachable from everything, and queries *from*
    /// the foreign twin match the oracle.
    fn equivocation_leaves_index_intact(
        n in 4usize..8,
        rounds in 3usize..9,
        seed in any::<u64>(),
    ) {
        let mut dag = random_dag(n, rounds, seed);
        let mut rng = Mix(seed ^ 0xE9);
        let committee = dag.committee().clone();
        let round = Round(1 + rng.below(rounds as u64 - 1));
        let victim = dag
            .round_vertices(round)
            .nth(rng.below(dag.round_len(round) as u64) as usize)
            .expect("round non-empty")
            .clone();
        // Same (round, author), same parents, different block.
        let twin = Vertex::new(
            victim.round(),
            victim.author(),
            Block::new(vec![hh_types::Transaction::new(9, 9, 9)]),
            victim.parents().to_vec(),
            &committee.keypair(victim.author()),
        );
        prop_assert_ne!(twin.digest(), victim.digest());
        let before = dag.len();
        prop_assert!(matches!(
            dag.try_insert(twin.clone()),
            Err(hh_dag::DagError::Equivocation { .. })
        ));
        prop_assert_eq!(dag.len(), before);
        for v in all_vertices(&dag) {
            prop_assert!(!dag.reachable(&v, &twin), "foreign twin reachable from {}", v);
            prop_assert_eq!(
                dag.reachable(&v, &victim),
                reachable_bfs(&dag, &v, &victim),
                "victim query diverged after equivocation attempt"
            );
            prop_assert_eq!(
                dag.reachable(&twin, &v),
                reachable_bfs(&dag, &twin, &v),
                "query from the foreign twin to {} diverged", v
            );
        }
        check_dag(&dag, &mut rng);
    }
}

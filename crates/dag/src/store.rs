//! The DAG store: validated insertion, slot-interned indices,
//! level-walk reachability, histories, GC.
//!
//! Internally every vertex is *interned*: [`Dag::try_insert`] assigns it a
//! dense `u32` slot id, adjacency is stored as slot-id arrays, and each
//! slot keeps a committee bitmask of its parents' authors (the author
//! check of parent validation, kept). Reachability walks those masks
//! down the per-round author index one level at a time. The digest-keyed
//! map survives only at the boundary (wire messages identify vertices by
//! digest); every internal traversal walks integers. See
//! `docs/architecture.md` ("DAG indexing & complexity") for the
//! complexity table.

use hh_crypto::Digest;
use hh_types::{Committee, DigestMap, Round, Stake, TypeError, ValidatorId, Vertex};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Compatibility shim: the DAG keeps no reachability window. Kept only
/// for the benchmark crate's layer replay (`perfbench/src/replay.rs`),
/// with [`Dag::with_reach_window`]; delete both once it calls [`Dag::new`].
pub const DEFAULT_REACH_WINDOW: usize = 64;

/// Dense per-vertex index assigned at insertion.
type SlotId = u32;

/// Errors rejecting a vertex at insertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DagError {
    /// The author is not a committee member.
    UnknownAuthor(ValidatorId),
    /// One or more parents are not in the DAG yet. The caller (the broadcast
    /// layer) should fetch them and retry; the missing digests are listed.
    MissingParents(Vec<Digest>),
    /// A parent is present but lives in the wrong round.
    WrongParentRound {
        /// The inserted vertex's round.
        round: Round,
        /// The misplaced parent.
        parent: Digest,
        /// The round that parent actually occupies.
        parent_round: Round,
    },
    /// The parents carry less than quorum stake.
    InsufficientParentStake {
        /// Stake carried by the vertex's parents.
        have: Stake,
        /// The committee's quorum threshold.
        need: Stake,
    },
    /// The parents list contains a duplicate digest or duplicate author.
    DuplicateParents,
    /// A non-genesis vertex carries no parents, or a genesis vertex carries
    /// some.
    MalformedParents(&'static str),
    /// The vertex's round is below the garbage-collection horizon.
    BelowGc {
        /// The rejected vertex's round.
        round: Round,
        /// The current horizon (lowest retained round).
        gc_round: Round,
    },
    /// The author already has a different vertex in this round
    /// (equivocation); the original is kept.
    Equivocation {
        /// The equivocating author.
        author: ValidatorId,
        /// The round in which two distinct vertices were observed.
        round: Round,
    },
    /// A structural error bubbled up from type validation.
    Type(TypeError),
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::UnknownAuthor(id) => write!(f, "unknown author {id}"),
            DagError::MissingParents(p) => write!(f, "{} parents missing from the dag", p.len()),
            DagError::WrongParentRound { round, parent, parent_round } => {
                write!(f, "parent {parent} of round-{round} vertex lives in round {parent_round}")
            }
            DagError::InsufficientParentStake { have, need } => {
                write!(f, "parent stake {have} below quorum {need}")
            }
            DagError::DuplicateParents => write!(f, "duplicate parent digest or author"),
            DagError::MalformedParents(why) => write!(f, "malformed parents: {why}"),
            DagError::BelowGc { round, gc_round } => {
                write!(f, "vertex round {round} below gc horizon {gc_round}")
            }
            DagError::Equivocation { author, round } => {
                write!(f, "equivocation by {author} in round {round}")
            }
            DagError::Type(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DagError {}

impl From<TypeError> for DagError {
    fn from(e: TypeError) -> Self {
        DagError::Type(e)
    }
}

/// Result of a successful [`Dag::try_insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The vertex is new and was stored.
    Inserted,
    /// The identical vertex was already present (idempotent re-insert).
    AlreadyPresent,
}

/// One interned vertex: the payload plus the integer indices every
/// traversal runs on.
#[derive(Clone, Debug)]
struct VertexSlot {
    vertex: Arc<Vertex>,
    /// Slot ids of the parents (all in `round - 1`). Cleared when the
    /// parents' round is garbage-collected, so stored ids are always live.
    parents: Vec<SlotId>,
    /// Stake of the next-round vertices linking here (its *votes*),
    /// maintained at insert time. Powers the O(1) direct-commit check.
    vote_stake: Stake,
}

/// Per-round slot index: author position → slot id, plus the cached
/// aggregates the per-message hot path reads.
#[derive(Clone, Debug)]
struct RoundIndex {
    by_author: Vec<Option<SlotId>>,
    len: usize,
    stake: Stake,
}

impl RoundIndex {
    fn new(n: usize) -> Self {
        RoundIndex { by_author: vec![None; n], len: 0, stake: Stake(0) }
    }
}

/// Reusable traversal state for the indexed sub-DAG walk.
///
/// [`Dag::causal_sub_dag_with`] marks visited slots in two bitsets sized
/// to the slot table — `seen` (resolved either way, so the ordered-set
/// predicate runs exactly once per distinct parent) and `kept` (part of
/// the emitted sub-DAG). Owning one of these per consumer (the consensus
/// engine, the schedule policy) makes the commit walk allocation-free
/// apart from the returned vertex list itself.
#[derive(Clone, Debug, Default)]
pub struct SubDagScratch {
    /// One bit per slot id: resolved during this walk.
    seen: Vec<u64>,
    /// One bit per slot id: resolved as *unordered* (to emit).
    kept: Vec<u64>,
    /// Slot ids with `seen` set, for O(visited) clearing.
    touched: Vec<SlotId>,
}

impl SubDagScratch {
    /// An empty scratch; buffers grow to the DAG's slot count on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn grow(&mut self, slots: usize) {
        let words = slots.div_ceil(64);
        if self.seen.len() < words {
            self.seen.resize(words, 0);
            self.kept.resize(words, 0);
        }
    }

    fn is_seen(&self, id: SlotId) -> bool {
        self.seen[id as usize / 64] & (1 << (id as usize % 64)) != 0
    }

    fn note(&mut self, id: SlotId, keep: bool) {
        let (word, bit) = (id as usize / 64, 1u64 << (id as usize % 64));
        self.seen[word] |= bit;
        if keep {
            self.kept[word] |= bit;
        }
        self.touched.push(id);
    }

    fn is_kept(&self, id: SlotId) -> bool {
        self.kept[id as usize / 64] & (1 << (id as usize % 64)) != 0
    }

    fn clear(&mut self) {
        for id in self.touched.drain(..) {
            let (word, bit) = (id as usize / 64, 1u64 << (id as usize % 64));
            self.seen[word] &= !bit;
            self.kept[word] &= !bit;
        }
    }
}

/// The round-structured DAG (the paper's `DAG_i[]`).
///
/// Holds at most one vertex per `(round, author)`; a second, different
/// vertex from the same author in the same round is rejected as
/// equivocation and counted (with best-effort broadcast a Byzantine author
/// can attempt this; with certified broadcast it cannot happen).
///
/// Internally vertices are interned into dense slots with index-array
/// adjacency and per-vertex parent-author masks (see the module docs);
/// digests only matter at the insertion/lookup boundary.
#[derive(Clone, Debug)]
pub struct Dag {
    committee: Committee,
    /// Slot table; `None` marks a slot retired by GC (id recycled via
    /// `free`).
    slots: Vec<Option<VertexSlot>>,
    /// Retired slot ids available for reuse.
    free: Vec<SlotId>,
    /// Boundary index: digest → slot id (pass-through hashed).
    by_digest: DigestMap<Digest, SlotId>,
    rounds: BTreeMap<Round, RoundIndex>,
    gc_round: Round,
    equivocations: u64,
    /// Words per author mask: `⌈n/64⌉`.
    words: usize,
    /// Parent-author masks, `words` per slot id: one bit per committee
    /// author with a parent there. Fixed at insert: unlike a slot's
    /// `parents` they survive GC of the parents' round.
    masks: Vec<u64>,
}

impl Dag {
    /// An empty DAG for `committee`.
    pub fn new(committee: Committee) -> Self {
        let words = committee.size().div_ceil(64);
        Dag {
            committee,
            slots: Vec::new(),
            free: Vec::new(),
            by_digest: DigestMap::default(),
            rounds: BTreeMap::new(),
            gc_round: Round(0),
            equivocations: 0,
            words,
            masks: Vec::new(),
        }
    }

    /// Compatibility shim equal to [`Dag::new`] (`window` is ignored);
    /// see [`DEFAULT_REACH_WINDOW`].
    pub fn with_reach_window(committee: Committee, _window: usize) -> Self {
        Self::new(committee)
    }

    /// The committee this DAG validates against.
    pub fn committee(&self) -> &Committee {
        &self.committee
    }

    fn slot(&self, id: SlotId) -> &VertexSlot {
        self.slots[id as usize].as_ref().expect("live slot id")
    }

    fn parent_authors(&self, id: SlotId) -> &[u64] {
        &self.masks[id as usize * self.words..][..self.words]
    }

    fn slot_of(&self, digest: &Digest) -> Option<SlotId> {
        self.by_digest.get(digest).copied()
    }

    /// Validates and stores a vertex.
    ///
    /// Validation enforces Algorithm 1's invariants:
    /// * the author is a committee member;
    /// * round 0 vertices have no parents; later rounds have parents that
    ///   (a) are all present, (b) all live in `round - 1`, (c) have distinct
    ///   authors, and (d) carry at least quorum stake;
    /// * the author has no *different* vertex in this round.
    ///
    /// # Errors
    ///
    /// See [`DagError`]. On [`DagError::MissingParents`] the caller should
    /// sync the listed digests and retry — this is the signal driving the
    /// broadcast layer's fetcher.
    pub fn try_insert(&mut self, vertex: Vertex) -> Result<InsertOutcome, DagError> {
        self.try_insert_arc(Arc::new(vertex))
    }

    /// [`Dag::try_insert`] for a vertex already behind an `Arc` — the
    /// broadcast layer's zero-copy intake. On success the DAG interns
    /// the *same* allocation (a refcount bump, no deep copy of the
    /// block or parent list).
    ///
    /// # Errors
    ///
    /// See [`Dag::try_insert`].
    pub fn try_insert_arc(&mut self, vertex: Arc<Vertex>) -> Result<InsertOutcome, DagError> {
        let round = vertex.round();
        let author = vertex.author();
        let n = self.committee.size();

        if !self.committee.contains(author) {
            return Err(DagError::UnknownAuthor(author));
        }
        if round < self.gc_round {
            return Err(DagError::BelowGc { round, gc_round: self.gc_round });
        }
        if let Some(existing) = self
            .rounds
            .get(&round)
            .and_then(|r| r.by_author[author.index()])
            .map(|id| self.slot(id))
        {
            if existing.vertex.digest() == vertex.digest() {
                return Ok(InsertOutcome::AlreadyPresent);
            }
            self.equivocations += 1;
            return Err(DagError::Equivocation { author, round });
        }

        let mut parent_slots: Vec<SlotId> = Vec::new();
        // The parents' author mask, stored in `masks` on success: on the
        // stack for the committee sizes we simulate, heap spill only for
        // n > 256.
        let mut seen_small = [0u64; 4];
        let mut seen_spill: Vec<u64>;
        let seen_authors: &mut [u64] = if self.words <= seen_small.len() {
            &mut seen_small[..self.words]
        } else {
            seen_spill = vec![0u64; self.words];
            &mut seen_spill
        };
        if round == Round(0) {
            if !vertex.parents().is_empty() {
                return Err(DagError::MalformedParents("genesis vertex with parents"));
            }
        } else {
            if vertex.parents().is_empty() {
                return Err(DagError::MalformedParents("non-genesis vertex without parents"));
            }
            // One pass, one map lookup per parent; missing parents are only
            // *counted* here so the common all-present case allocates
            // nothing beyond the adjacency array the slot keeps anyway. A
            // duplicate digest implies a duplicate author (digests resolve
            // to unique vertices), so the author bitset covers both
            // duplicate checks for resolvable parents; unresolvable
            // duplicates surface via the missing path and are re-validated
            // after sync.
            parent_slots.reserve_exact(vertex.parents().len());
            let mut missing = 0usize;
            let mut stake = Stake(0);
            for parent in vertex.parents() {
                match self.slot_of(parent) {
                    None => missing += 1,
                    Some(id) => {
                        let pv = self.slot(id);
                        if pv.vertex.round() != round.prev() || round.0 == 0 {
                            return Err(DagError::WrongParentRound {
                                round,
                                parent: *parent,
                                parent_round: pv.vertex.round(),
                            });
                        }
                        let idx = pv.vertex.author().index();
                        if has_bit(seen_authors, idx) {
                            return Err(DagError::DuplicateParents);
                        }
                        seen_authors[idx / 64] |= 1 << (idx % 64);
                        stake += self.committee.stake_of(pv.vertex.author());
                        parent_slots.push(id);
                    }
                }
            }
            if missing > 0 {
                // Second pass only on the incomplete-ancestry path.
                let missing: Vec<Digest> = vertex
                    .parents()
                    .iter()
                    .filter(|d| !self.by_digest.contains_key(*d))
                    .copied()
                    .collect();
                return Err(DagError::MissingParents(missing));
            }
            if stake < self.committee.quorum_threshold() {
                return Err(DagError::InsufficientParentStake {
                    have: stake,
                    need: self.committee.quorum_threshold(),
                });
            }
        }

        // Commit the insert: charge vote stake to the parents, intern the
        // vertex into a (possibly recycled) slot, index it.
        let author_stake = self.committee.stake_of(author);
        for &p in &parent_slots {
            self.slots[p as usize].as_mut().expect("live slot id").vote_stake += author_stake;
        }
        let digest = vertex.digest();
        let slot = VertexSlot { vertex, parents: parent_slots, vote_stake: Stake(0) };
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(slot);
                let words = self.words;
                self.masks[id as usize * words..][..words].copy_from_slice(seen_authors);
                id
            }
            None => {
                let id = SlotId::try_from(self.slots.len()).expect("slot ids fit u32");
                self.slots.push(Some(slot));
                self.masks.extend_from_slice(seen_authors);
                id
            }
        };
        self.by_digest.insert(digest, id);
        let ri = self.rounds.entry(round).or_insert_with(|| RoundIndex::new(n));
        ri.by_author[author.index()] = Some(id);
        ri.len += 1;
        ri.stake += author_stake;
        Ok(InsertOutcome::Inserted)
    }

    /// Which of `parents` are not yet in the DAG. Returns without
    /// allocating when everything is present (the common case on the
    /// insert path).
    pub fn missing_from(&self, parents: &[Digest]) -> Vec<Digest> {
        if parents.iter().all(|d| self.by_digest.contains_key(d)) {
            return Vec::new();
        }
        parents.iter().filter(|d| !self.by_digest.contains_key(*d)).copied().collect()
    }

    /// Looks a vertex up by digest.
    pub fn get(&self, digest: &Digest) -> Option<&Arc<Vertex>> {
        self.slot_of(digest).map(|id| &self.slot(id).vertex)
    }

    /// Whether a vertex with this digest is present.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.by_digest.contains_key(digest)
    }

    /// The vertex authored by `author` in `round`, if any.
    pub fn vertex_by_author(&self, round: Round, author: ValidatorId) -> Option<&Arc<Vertex>> {
        let ri = self.rounds.get(&round)?;
        ri.by_author.get(author.index())?.map(|id| &self.slot(id).vertex)
    }

    /// All vertices of `round`, in ascending author order.
    pub fn round_vertices(&self, round: Round) -> impl Iterator<Item = &Arc<Vertex>> {
        self.rounds
            .get(&round)
            .into_iter()
            .flat_map(|ri| ri.by_author.iter().flatten())
            .map(|id| &self.slot(*id).vertex)
    }

    /// Number of vertices in `round`.
    pub fn round_len(&self, round: Round) -> usize {
        self.rounds.get(&round).map(|r| r.len).unwrap_or(0)
    }

    /// Total stake of the authors present in `round` (O(1), cached).
    pub fn round_stake(&self, round: Round) -> Stake {
        self.rounds.get(&round).map(|r| r.stake).unwrap_or(Stake(0))
    }

    /// Whether `round` holds quorum stake worth of vertices.
    pub fn is_quorum_at(&self, round: Round) -> bool {
        self.round_stake(round) >= self.committee.quorum_threshold()
    }

    /// Total stake of the next-round vertices linking to (voting for) the
    /// vertex with this digest. O(1), maintained at insert time.
    ///
    /// With one vertex per `(round, author)` (enforced at insertion), each
    /// author contributes its stake at most once per target.
    pub fn vote_stake(&self, target: &Digest) -> Stake {
        self.slot_of(target).map(|id| self.slot(id).vote_stake).unwrap_or(Stake(0))
    }

    /// The highest round containing any vertex.
    pub fn highest_round(&self) -> Option<Round> {
        self.rounds.keys().next_back().copied()
    }

    /// The lowest retained round (GC horizon).
    pub fn gc_round(&self) -> Round {
        self.gc_round
    }

    /// Number of equivocation attempts rejected so far.
    pub fn equivocations(&self) -> u64 {
        self.equivocations
    }

    /// Total number of stored vertices.
    pub fn len(&self) -> usize {
        self.by_digest.len()
    }

    /// Whether the DAG holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.by_digest.is_empty()
    }

    /// The paper's `path(v, u)`: is there a chain of parent edges from
    /// `from` down to `to`?
    ///
    /// A level walk: the frontier starts as `from`'s parent-author mask,
    /// and each step down one round ORs the masks of the frontier's
    /// vertices, found through the per-round author index. One vertex per
    /// `(round, author)` (enforced at insertion) makes `to`'s author bit
    /// at `to`'s round the answer. Exact at any depth down to the GC
    /// horizon; O(depth · n · ⌈n/64⌉) word operations, stopping once the
    /// frontier empties, and allocation-free for n ≤ 256.
    pub fn reachable(&self, from: &Vertex, to: &Vertex) -> bool {
        if from.digest() == to.digest() {
            return true;
        }
        if from.round() <= to.round() {
            return false;
        }
        let Some(from_id) = self.slot_of(&from.digest()) else {
            // A foreign `from` (never inserted, e.g. an equivocating
            // twin) reaches whatever its stored parents reach.
            return from
                .parents()
                .iter()
                .filter_map(|d| self.get(d))
                .any(|p| self.reachable(p, to));
        };
        // `to` must be the stored vertex of its `(round, author)`: stored
        // edges only reference stored vertices.
        if self.vertex_by_author(to.round(), to.author()).map(|v| v.digest()) != Some(to.digest()) {
            return false;
        }
        // Two frontiers of `words` each, on the stack for n ≤ 256.
        let words = self.words;
        let mut small = [0u64; 8];
        let mut spill: Vec<u64>;
        let buf: &mut [u64] = if 2 * words <= small.len() {
            &mut small[..2 * words]
        } else {
            spill = vec![0u64; 2 * words];
            &mut spill
        };
        let (mut frontier, mut next) = buf.split_at_mut(words);
        frontier.copy_from_slice(self.parent_authors(from_id));
        let target = to.author().index();
        let mut r = from.round().prev();
        while r > to.round() {
            let Some(ri) = self.rounds.get(&r) else {
                return false;
            };
            // One round above `to`, the first frontier vertex linking to
            // `to` decides.
            let last = r == to.round().next();
            next.fill(0);
            for (w, &word) in frontier.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let idx = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let Some(id) = ri.by_author[idx] else { continue };
                    for (dst, src) in next.iter_mut().zip(self.parent_authors(id)) {
                        *dst |= *src;
                    }
                    if last && has_bit(next, target) {
                        return true;
                    }
                }
            }
            if next.iter().all(|&w| w == 0) {
                return false;
            }
            std::mem::swap(&mut frontier, &mut next);
            r = r.prev();
        }
        has_bit(frontier, target)
    }

    /// Every stored ancestor of `from`, including `from` itself, in
    /// ascending `(round, author)` order.
    pub fn causal_history(&self, from: &Vertex) -> Vec<Arc<Vertex>> {
        self.causal_sub_dag(from, |_| false)
    }

    /// The ancestors of `anchor` (including it) for which `is_ordered`
    /// returns `false`, pruning descent at ordered vertices — with a
    /// freshly allocated scratch. Hot callers keep a [`SubDagScratch`]
    /// and use [`Dag::causal_sub_dag_with`].
    pub fn causal_sub_dag(
        &self,
        anchor: &Vertex,
        is_ordered: impl Fn(&Digest) -> bool,
    ) -> Vec<Arc<Vertex>> {
        self.causal_sub_dag_with(anchor, is_ordered, &mut SubDagScratch::new())
    }

    /// The ancestors of `anchor` (including it) for which `is_ordered`
    /// returns `false`, pruning descent at ordered vertices.
    ///
    /// This is the sub-DAG a freshly committed anchor delivers: ordering
    /// always delivers complete histories, so once a vertex is ordered its
    /// whole history is too, and the search need not descend past it.
    /// Unknown parents (garbage-collected) are likewise skipped.
    ///
    /// The walk runs level-by-level over the slot index and emits in
    /// ascending `(round, author)` order — exactly the deterministic
    /// delivery order the commit rule needs, so consumers sort nothing.
    /// Apart from the returned list, all state lives in `scratch`.
    pub fn causal_sub_dag_with(
        &self,
        anchor: &Vertex,
        is_ordered: impl Fn(&Digest) -> bool,
        scratch: &mut SubDagScratch,
    ) -> Vec<Arc<Vertex>> {
        let Some(anchor_id) = self.slot_of(&anchor.digest()) else {
            return Vec::new();
        };
        if is_ordered(&anchor.digest()) {
            return Vec::new();
        }
        scratch.grow(self.slots.len());
        scratch.note(anchor_id, true);
        let top = anchor.round();
        let mut low = top;

        // Mark phase: rounds descend one by one; when a level adds no
        // marks the frontier died out (edges never skip rounds). Siblings
        // share most parents, so each distinct parent is resolved — one
        // bit probe, and at most one ordered-set lookup — exactly once.
        let mut r = top;
        while let Some(ri) = self.rounds.get(&r) {
            let mut any_below = false;
            for id in ri.by_author.iter().flatten() {
                if !scratch.is_kept(*id) {
                    continue;
                }
                for &p in &self.slot(*id).parents {
                    if !scratch.is_seen(p) {
                        let keep = !is_ordered(&self.slot(p).vertex.digest());
                        scratch.note(p, keep);
                        any_below |= keep;
                    }
                }
            }
            if !any_below || r.0 == 0 {
                low = r;
                break;
            }
            r = r.prev();
        }

        // Emit phase: ascending rounds, authors ascending within each.
        let mut out = Vec::with_capacity(scratch.touched.len());
        for (_, ri) in self.rounds.range(low..=top) {
            for id in ri.by_author.iter().flatten() {
                if scratch.is_kept(*id) {
                    out.push(self.slot(*id).vertex.clone());
                }
            }
        }
        scratch.clear();
        out
    }

    /// Whether `from` links to (votes for) the previous-round vertex
    /// authored by `author`. Powers the reputation policy's vote
    /// accounting.
    ///
    /// For interned vertices this is one probe of the insert-time
    /// parent-author mask, which `gc` leaves alone, so the answer never
    /// flickers when the linked round is later garbage-collected — vote
    /// accounting stays independent of each validator's local GC timing
    /// (a live lookup could answer differently on two validators for a
    /// vertex ordered right at the horizon). Foreign vertices — never
    /// produced by the ordering path, which only traverses stored
    /// vertices — fall back to scanning their parent list against the
    /// currently stored `(round, author)` vertex.
    pub fn links_to_author(&self, from: &Vertex, author: ValidatorId) -> bool {
        if from.round().0 == 0 {
            return false;
        }
        if let Some(id) = self.slot_of(&from.digest()) {
            return has_bit(self.parent_authors(id), author.index());
        }
        self.vertex_by_author(from.round().prev(), author)
            .is_some_and(|stored| from.has_parent(&stored.digest()))
    }

    /// Drops all rounds strictly below `round`. Future inserts below the
    /// horizon are rejected with [`DagError::BelowGc`].
    ///
    /// Retired slot ids are recycled by later inserts; the lowest
    /// retained round's parent edges are detached (their targets are
    /// gone), which keeps every stored slot id live by construction.
    ///
    /// Callers must only GC rounds whose vertices are already ordered
    /// everywhere they are needed (the validator keeps a safety margin,
    /// `gc_depth`, below its last committed round).
    pub fn gc(&mut self, round: Round) {
        if round <= self.gc_round {
            return;
        }
        let keep = self.rounds.split_off(&round);
        for (_, dropped) in std::mem::replace(&mut self.rounds, keep) {
            for id in dropped.by_author.into_iter().flatten() {
                let slot = self.slots[id as usize].take().expect("live slot id");
                self.by_digest.remove(&slot.vertex.digest());
                self.free.push(id);
            }
        }
        // Only the new lowest round can reference dropped parents (edges
        // descend exactly one round; occupied rounds are contiguous).
        if let Some((first, ri)) = self.rounds.iter().next() {
            if first.0 < round.0 + 1 {
                let ids: Vec<SlotId> = ri.by_author.iter().flatten().copied().collect();
                for id in ids {
                    self.slots[id as usize].as_mut().expect("live slot id").parents.clear();
                }
            }
        }
        self.gc_round = round;
    }
}

fn has_bit(mask: &[u64], idx: usize) -> bool {
    mask[idx / 64] & (1 << (idx % 64)) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{reachable_bfs, DagBuilder};
    use hh_types::Block;
    use std::collections::HashSet;

    fn committee4() -> Committee {
        Committee::new_equal_stake(4)
    }

    #[test]
    fn genesis_round_inserts() {
        let mut builder = DagBuilder::new(committee4());
        builder.extend_full_rounds(1);
        assert_eq!(builder.dag().round_len(Round(0)), 4);
        assert!(builder.dag().is_quorum_at(Round(0)));
    }

    #[test]
    fn genesis_with_parents_rejected() {
        let c = committee4();
        let mut dag = Dag::new(c.clone());
        let kp = c.keypair(ValidatorId(0));
        let fake_parent = hh_crypto::sha256(b"ghost");
        let v = Vertex::new(Round(0), ValidatorId(0), Block::empty(), vec![fake_parent], &kp);
        assert!(matches!(dag.try_insert(v), Err(DagError::MalformedParents(_))));
    }

    #[test]
    fn non_genesis_without_parents_rejected() {
        let c = committee4();
        let mut dag = Dag::new(c.clone());
        let kp = c.keypair(ValidatorId(0));
        let v = Vertex::new(Round(1), ValidatorId(0), Block::empty(), vec![], &kp);
        assert!(matches!(dag.try_insert(v), Err(DagError::MalformedParents(_))));
    }

    #[test]
    fn missing_parents_reported() {
        let c = committee4();
        let mut dag = Dag::new(c.clone());
        let kp = c.keypair(ValidatorId(0));
        let ghost1 = hh_crypto::sha256(b"g1");
        let ghost2 = hh_crypto::sha256(b"g2");
        let ghost3 = hh_crypto::sha256(b"g3");
        let v = Vertex::new(
            Round(1),
            ValidatorId(0),
            Block::empty(),
            vec![ghost1, ghost2, ghost3],
            &kp,
        );
        match dag.try_insert(v) {
            Err(DagError::MissingParents(m)) => assert_eq!(m.len(), 3),
            other => panic!("expected MissingParents, got {other:?}"),
        }
    }

    #[test]
    fn insufficient_parent_stake_rejected() {
        let c = committee4();
        let mut builder = DagBuilder::new(c.clone());
        builder.extend_full_rounds(1);
        // Only 2 parents (< quorum 3 for n=4).
        let parents: Vec<Digest> =
            builder.dag().round_vertices(Round(0)).take(2).map(|v| v.digest()).collect();
        let kp = c.keypair(ValidatorId(0));
        let v = Vertex::new(Round(1), ValidatorId(0), Block::empty(), parents, &kp);
        let mut dag = builder.into_dag();
        assert!(matches!(dag.try_insert(v), Err(DagError::InsufficientParentStake { .. })));
    }

    #[test]
    fn duplicate_parent_digest_rejected() {
        let c = committee4();
        let mut builder = DagBuilder::new(c.clone());
        builder.extend_full_rounds(1);
        let first = builder.dag().vertex_by_author(Round(0), ValidatorId(0)).unwrap().digest();
        let kp = c.keypair(ValidatorId(1));
        let v =
            Vertex::new(Round(1), ValidatorId(1), Block::empty(), vec![first, first, first], &kp);
        let mut dag = builder.into_dag();
        assert_eq!(dag.try_insert(v), Err(DagError::DuplicateParents));
    }

    #[test]
    fn wrong_parent_round_rejected() {
        let c = committee4();
        let mut builder = DagBuilder::new(c.clone());
        builder.extend_full_rounds(2); // rounds 0 and 1
                                       // A round-2 vertex pointing straight at round-0 vertices.
        let parents: Vec<Digest> =
            builder.dag().round_vertices(Round(0)).map(|v| v.digest()).collect();
        let kp = c.keypair(ValidatorId(0));
        let v = Vertex::new(Round(2), ValidatorId(0), Block::empty(), parents, &kp);
        let mut dag = builder.into_dag();
        assert!(matches!(dag.try_insert(v), Err(DagError::WrongParentRound { .. })));
    }

    #[test]
    fn reinsert_is_idempotent() {
        let c = committee4();
        let mut dag = Dag::new(c.clone());
        let kp = c.keypair(ValidatorId(0));
        let v = Vertex::new(Round(0), ValidatorId(0), Block::empty(), vec![], &kp);
        assert_eq!(dag.try_insert(v.clone()), Ok(InsertOutcome::Inserted));
        assert_eq!(dag.try_insert(v), Ok(InsertOutcome::AlreadyPresent));
        assert_eq!(dag.len(), 1);
    }

    #[test]
    fn equivocation_detected_first_kept() {
        let c = committee4();
        let mut dag = Dag::new(c.clone());
        let kp = c.keypair(ValidatorId(0));
        let v1 = Vertex::new(Round(0), ValidatorId(0), Block::empty(), vec![], &kp);
        let v2 = Vertex::new(
            Round(0),
            ValidatorId(0),
            Block::new(vec![hh_types::Transaction::new(0, 0, 0)]),
            vec![],
            &kp,
        );
        assert_ne!(v1.digest(), v2.digest());
        dag.try_insert(v1.clone()).unwrap();
        assert!(matches!(
            dag.try_insert(v2),
            Err(DagError::Equivocation { author: ValidatorId(0), round: Round(0) })
        ));
        assert_eq!(dag.equivocations(), 1);
        assert_eq!(dag.vertex_by_author(Round(0), ValidatorId(0)).unwrap().digest(), v1.digest());
    }

    #[test]
    fn unknown_author_rejected() {
        let c = committee4();
        let mut dag = Dag::new(c);
        let kp = hh_crypto::Keypair::from_seed(99);
        let v = Vertex::new(Round(0), ValidatorId(9), Block::empty(), vec![], &kp);
        assert_eq!(dag.try_insert(v), Err(DagError::UnknownAuthor(ValidatorId(9))));
    }

    #[test]
    fn reachability_through_full_rounds() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(5);
        let dag = builder.dag();
        let top = dag.vertex_by_author(Round(4), ValidatorId(0)).unwrap().clone();
        let bottom = dag.vertex_by_author(Round(0), ValidatorId(3)).unwrap().clone();
        assert!(dag.reachable(&top, &bottom));
        assert!(!dag.reachable(&bottom, &top), "edges point down only");
        assert!(dag.reachable(&top, &top), "reflexive");
    }

    #[test]
    fn reachability_respects_missing_links() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(1);
        // Round 1: every vertex links to all of round 0 EXCEPT v3's vertex.
        builder.extend_round_excluding(&[ValidatorId(3)]);
        builder.extend_full_rounds(100);
        let dag = builder.dag();
        let excluded = dag.vertex_by_author(Round(0), ValidatorId(3)).unwrap().clone();
        let included = dag.vertex_by_author(Round(0), ValidatorId(0)).unwrap().clone();
        // Exact at any depth: one round up and a hundred rounds up.
        for top_round in [1, 101] {
            let top = dag.vertex_by_author(Round(top_round), ValidatorId(0)).unwrap().clone();
            assert!(!dag.reachable(&top, &excluded));
            assert!(dag.reachable(&top, &included));
        }
    }

    #[test]
    fn level_walk_and_bfs_agree_at_full_depth_and_after_gc() {
        // Round 1 withholds every edge to v3's genesis vertex, so it is
        // unreachable from everything above, at any depth.
        let mut builder = DagBuilder::new(committee4());
        builder.extend_full_rounds(1);
        builder.extend_round_excluding(&[ValidatorId(3)]);
        builder.extend_round_without(&[ValidatorId(1)]);
        builder.extend_full_rounds(5);
        let mut dag = builder.into_dag();
        let check_all = |dag: &Dag| {
            let all: Vec<_> =
                (dag.gc_round().0..8).flat_map(|r| dag.round_vertices(Round(r))).collect();
            for from in &all {
                for to in &all {
                    assert_eq!(
                        dag.reachable(from, to),
                        reachable_bfs(dag, from, to),
                        "{from} -> {to}"
                    );
                }
            }
        };
        check_all(&dag);
        let links = |dag: &Dag| -> Vec<bool> {
            dag.round_vertices(Round(3))
                .flat_map(|v| dag.committee().ids().map(|a| dag.links_to_author(v, a)))
                .collect()
        };
        let before = links(&dag);
        dag.gc(Round(3));
        check_all(&dag);
        assert_eq!(links(&dag), before, "vote edges must survive GC of the parents' round");
    }

    #[test]
    fn masks_carry_authors_past_the_first_word() {
        // n = 70, so authors 64..70 live in each mask's second word. Only
        // v65's round-1 vertex links to v0's genesis vertex; v1's round-2
        // vertex reaches round 1 through v65, v2's does not.
        let mut builder = DagBuilder::new(Committee::new_equal_stake(70));
        builder.extend_full_rounds(1);
        let all: Vec<ValidatorId> = builder.dag().committee().ids().collect();
        builder.extend_round_custom(&all, |a| (a != ValidatorId(65)).then(|| vec![ValidatorId(0)]));
        let high = |keep: Option<u16>| (64..70).filter(move |&i| Some(i) != keep).map(ValidatorId);
        builder.extend_round_custom(&all, |a| match a.0 {
            1 => Some(high(Some(65)).collect()),
            2 => Some(high(None).collect()),
            _ => None,
        });
        builder.extend_full_rounds(1);
        let dag = builder.dag();
        let target = dag.vertex_by_author(Round(0), ValidatorId(0)).unwrap();
        let at = |r: u64, a: u16| dag.vertex_by_author(Round(r), ValidatorId(a)).unwrap();
        for (from, expected) in [(at(2, 1), true), (at(2, 2), false), (at(3, 0), true)] {
            assert_eq!(dag.reachable(from, target), expected, "{from}");
            assert_eq!(reachable_bfs(dag, from, target), expected, "{from}");
        }
    }

    #[test]
    fn links_to_author_matches_parent_scan() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(1);
        builder.extend_round_excluding(&[ValidatorId(2)]);
        let dag = builder.dag();
        for v in dag.round_vertices(Round(1)) {
            for author in dag.committee().ids() {
                let stored = dag.vertex_by_author(Round(0), author).unwrap();
                assert_eq!(
                    dag.links_to_author(v, author),
                    v.has_parent(&stored.digest()),
                    "{v} -> {author}"
                );
            }
        }
        // Genesis vertices vote for nobody.
        let g = dag.vertex_by_author(Round(0), ValidatorId(0)).unwrap();
        assert!(!dag.links_to_author(g, ValidatorId(1)));
    }

    #[test]
    fn causal_history_is_complete() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(4);
        let dag = builder.dag();
        let top = dag.vertex_by_author(Round(3), ValidatorId(1)).unwrap().clone();
        let history = dag.causal_history(&top);
        // Full rounds: history = self + 3 complete rounds of 4.
        assert_eq!(history.len(), 1 + 3 * 4);
        // Closure: every parent of a history vertex is in the history
        // (except genesis, which has none).
        let digests: HashSet<Digest> = history.iter().map(|v| v.digest()).collect();
        for v in &history {
            for p in v.parents() {
                assert!(digests.contains(p));
            }
        }
        // Emission is ascending (round, author) — no caller-side sort.
        let keys: Vec<_> = history.iter().map(|v| (v.round(), v.author())).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn causal_sub_dag_prunes_ordered() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(4);
        let dag = builder.dag();
        let top = dag.vertex_by_author(Round(3), ValidatorId(1)).unwrap().clone();
        // Mark all of rounds 0-1 ordered.
        let ordered: HashSet<Digest> = dag
            .round_vertices(Round(0))
            .chain(dag.round_vertices(Round(1)))
            .map(|v| v.digest())
            .collect();
        let sub = dag.causal_sub_dag(&top, |d| ordered.contains(d));
        assert_eq!(sub.len(), 1 + 4, "self plus round 2");
        assert!(sub.iter().all(|v| v.round() >= Round(2)));
    }

    #[test]
    fn sub_dag_scratch_is_reusable() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(5);
        let dag = builder.dag();
        let mut scratch = SubDagScratch::new();
        let top = dag.vertex_by_author(Round(4), ValidatorId(0)).unwrap().clone();
        let a = dag.causal_sub_dag_with(&top, |_| false, &mut scratch);
        let b = dag.causal_sub_dag_with(&top, |_| false, &mut scratch);
        assert_eq!(a.len(), b.len(), "stale marks would shrink the second walk");
        assert_eq!(
            a.iter().map(|v| v.digest()).collect::<Vec<_>>(),
            b.iter().map(|v| v.digest()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gc_drops_rounds_and_blocks_reinsertion() {
        let c = committee4();
        let mut builder = DagBuilder::new(c.clone());
        builder.extend_full_rounds(5);
        let mut dag = builder.into_dag();
        let victim = dag.vertex_by_author(Round(0), ValidatorId(0)).unwrap().clone();
        dag.gc(Round(2));
        assert_eq!(dag.gc_round(), Round(2));
        assert!(!dag.contains(&victim.digest()));
        assert_eq!(dag.round_len(Round(0)), 0);
        assert_eq!(dag.round_len(Round(2)), 4);
        let kp = c.keypair(ValidatorId(0));
        let stale =
            Vertex::new(Round(1), ValidatorId(0), Block::empty(), vec![victim.digest()], &kp);
        assert!(matches!(dag.try_insert(stale), Err(DagError::BelowGc { .. })));
        // GC going backwards is a no-op.
        dag.gc(Round(1));
        assert_eq!(dag.gc_round(), Round(2));
    }

    #[test]
    fn gc_recycles_slots_and_keeps_queries_consistent() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(6);
        let mut dag = builder.into_dag();
        dag.gc(Round(3));
        assert_eq!(dag.len(), 3 * 4);
        // New rounds reuse the retired slots; every query keeps working.
        let mut b2 = DagBuilder::new(Committee::new_equal_stake(4));
        b2.extend_full_rounds(6);
        for r in 6..9u64 {
            let parents: Vec<Digest> = {
                let mut refs: Vec<(ValidatorId, Digest)> =
                    dag.round_vertices(Round(r - 1)).map(|v| (v.author(), v.digest())).collect();
                refs.sort();
                refs.into_iter().map(|(_, d)| d).collect()
            };
            for author in dag.committee().ids().collect::<Vec<_>>() {
                let kp = dag.committee().keypair(author);
                let v = Vertex::new(Round(r), author, Block::empty(), parents.clone(), &kp);
                assert_eq!(dag.try_insert(v), Ok(InsertOutcome::Inserted));
            }
        }
        assert_eq!(dag.len(), 6 * 4);
        let top = dag.vertex_by_author(Round(8), ValidatorId(0)).unwrap().clone();
        let mid = dag.vertex_by_author(Round(4), ValidatorId(2)).unwrap().clone();
        assert!(dag.reachable(&top, &mid));
        assert_eq!(dag.reachable(&top, &mid), reachable_bfs(&dag, &top, &mid));
        // History bottoms out at the GC horizon (round 3).
        let history = dag.causal_history(&top);
        assert_eq!(history.len(), 6 * 4 - 3, "rounds 3..=8, minus round-8 peers");
        assert!(history.iter().all(|v| v.round() >= Round(3)));
    }

    #[test]
    fn reachability_survives_gc_of_ordered_prefix() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(6);
        let mut dag = builder.into_dag();
        dag.gc(Round(2));
        let top = dag.vertex_by_author(Round(5), ValidatorId(0)).unwrap().clone();
        let mid = dag.vertex_by_author(Round(3), ValidatorId(2)).unwrap().clone();
        assert!(dag.reachable(&top, &mid));
    }

    #[test]
    fn missing_from_lists_unknown_digests() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(1);
        let dag = builder.dag();
        let known = dag.vertex_by_author(Round(0), ValidatorId(0)).unwrap().digest();
        let ghost = hh_crypto::sha256(b"ghost");
        assert_eq!(dag.missing_from(&[known, ghost]), vec![ghost]);
        assert!(dag.missing_from(&[known]).is_empty());
    }
}

//! The validator node: proposer, broadcast, consensus, transaction pool,
//! execution model, persistence and crash-recovery.
//!
//! [`Validator`] is a runtime-agnostic state machine: handlers take the
//! current time in microseconds and return [`Output`]s (messages to send,
//! timers to arm). The simulation harness (`hh-sim`) adapts it to the
//! discrete-event network; `hh-node` drives the same type over real TCP.
//! The Bullshark baseline and HammerHead are the *same* node, differing
//! only in [`ScheduleConfig`].
//!
//! Protocol flow per round `r`:
//!
//! 1. wait for quorum stake of round `r-1` vertices;
//! 2. pace (`min_round_delay_us`), and when leaving an *even* round wait up
//!    to `leader_timeout_us` for that round's anchor vertex — the leader-
//!    await that makes crashed leaders expensive for static schedules;
//! 3. propose: batch transactions (bounded by block size and the
//!    uncommitted-tx backpressure budget), link to all known `r-1`
//!    vertices, broadcast via the reliable-broadcast layer;
//! 4. feed every delivered vertex to the consensus engine; committed
//!    sub-DAGs drain through the execution-rate model, release
//!    backpressure budget, trigger checkpoints and DAG garbage collection.

use crate::config::{ScheduleConfig, ValidatorConfig};
use crate::policy::HammerheadPolicy;
use hh_consensus::{
    Bullshark, CommittedSubDag, RoundRobinPolicy, ScheduleDecision, SchedulePolicy, SlotSchedule,
    StaticLeaderPolicy,
};
use hh_crypto::{Digest, Keypair, Sha256};
use hh_dag::{Dag, EvidenceLedger};
use hh_rbc::{Rbc, RbcMessage};
use hh_storage::{LogBackend, ValidatorStore};
use hh_types::codec::{Decoder, Encode, EncodeExt};
use hh_types::{Block, Committee, Round, Transaction, TypeError, ValidatorId, Vertex, VertexRef};
use std::collections::VecDeque;
use std::sync::Arc;

/// Timer token: re-check round advancement (pacing deadline).
pub const TOKEN_ROUND: u64 = 1;
/// Timer token: leader-await deadline.
pub const TOKEN_LEADER: u64 = 2;
/// Timer token: broadcast-layer maintenance tick.
pub const TOKEN_TICK: u64 = 3;

/// Messages a validator exchanges (with peers and with clients).
#[derive(Clone, Debug)]
pub enum ValidatorMessage {
    /// Broadcast-layer traffic between validators.
    Rbc(RbcMessage),
    /// A client submitting a transaction.
    Submit(Transaction),
    /// Finality confirmation back to the submitting client (the paper
    /// measures latency to exactly this event). `executed_at` is the
    /// execution-pipeline completion instant; a confirmation carrying
    /// `executed_at == u64::MAX` reports a shed (failed) transaction.
    Confirm {
        /// The confirmed transaction.
        id: hh_types::TxId,
        /// Execution completion time (µs), or `u64::MAX` for a shed tx.
        executed_at: u64,
    },
}

impl Encode for ValidatorMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ValidatorMessage::Rbc(m) => {
                buf.put_u8(0);
                m.encode(buf);
            }
            ValidatorMessage::Submit(tx) => {
                buf.put_u8(1);
                tx.encode(buf);
            }
            ValidatorMessage::Confirm { id, executed_at } => {
                buf.put_u8(2);
                id.encode(buf);
                buf.put_u64(*executed_at);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        Ok(match d.take_u8()? {
            0 => ValidatorMessage::Rbc(RbcMessage::decode(d)?),
            1 => ValidatorMessage::Submit(Transaction::decode(d)?),
            2 => ValidatorMessage::Confirm {
                id: hh_types::TxId::decode(d)?,
                executed_at: d.take_u64()?,
            },
            _ => return Err(TypeError::Decode("invalid validator message tag")),
        })
    }
}

/// One committed sub-DAG as this validator observed it — the unit the
/// safety invariant checker consumes. Records are appended on every
/// commit, *including* commits recomputed during crash-recovery replay,
/// so the checker can hold replayed history to the same prefix the
/// validator had already exposed before the crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Position in the total order of commits (0-based, the engine's
    /// `commit_index`).
    pub index: u64,
    /// The committed anchor.
    pub anchor: VertexRef,
    /// Every vertex of the sub-DAG, in commit (deterministic traversal)
    /// order.
    pub vertices: Vec<VertexRef>,
    /// Whether this record was produced by crash-recovery replay rather
    /// than live consensus.
    pub replayed: bool,
}

/// Effects a handler asks the runtime to perform.
#[derive(Clone, Debug)]
pub enum Output {
    /// Send to one validator.
    Send(ValidatorId, ValidatorMessage),
    /// Send to every other validator.
    Broadcast(ValidatorMessage),
    /// Arm a one-shot timer.
    SetTimer {
        /// Delay from now, in microseconds.
        delay_us: u64,
        /// Token passed back to [`Validator::on_timer`].
        token: u64,
    },
    /// The durable store rejected a write (or could not be read during
    /// recovery). The validator has fail-stopped: it drops the failed
    /// operation and ignores further input until [`Validator::on_restart`]
    /// — a node that cannot uphold the write-ahead discipline must not keep
    /// acting, but a storage fault is the *runtime's* problem to surface,
    /// never a reason to panic the whole process.
    StorageError {
        /// What the node was persisting ("persist vertex", "persist
        /// checkpoint", "recover").
        context: &'static str,
        /// The underlying I/O error.
        detail: String,
    },
}

/// Latency record for one of this validator's own transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecRecord {
    /// Client submission time (µs).
    pub submitted_at: u64,
    /// Consensus commit time (µs).
    pub committed_at: u64,
    /// Execution completion time (µs) — the paper's "finality" instant.
    pub executed_at: u64,
    /// Modeled wire bytes of the transaction (header + payload) — the
    /// unit behind byte-goodput metrics.
    pub bytes: u32,
}

/// Counters exposed for the experiment harness and monitoring.
#[derive(Clone, Debug, Default)]
pub struct ValidatorMetrics {
    /// Transactions accepted into the pool.
    pub txs_accepted: u64,
    /// Transactions shed because the pool was full (backpressure).
    pub txs_shed: u64,
    /// Transactions committed in this validator's own vertices.
    pub own_txs_committed: u64,
    /// Vertices proposed.
    pub proposals: u64,
    /// Modeled wire bytes batched into own proposals.
    pub bytes_proposed: u64,
    /// Modeled wire bytes across all committed transactions (every
    /// validator's blocks, not just our own).
    pub bytes_committed: u64,
    /// Leader-await deadlines that expired (anchor never arrived in time).
    pub leader_timeouts: u64,
    /// Committed sub-DAGs observed.
    pub commits: u64,
    /// Times the node restarted from persistent storage.
    pub restarts: u64,
    /// Storage writes (or recovery reads) that failed; each one halts the
    /// node until the next restart.
    pub storage_errors: u64,
    /// Set if post-restart recomputation diverged from the last durable
    /// checkpoint (should never happen; monitoring tripwire).
    pub recovery_divergence: bool,
    /// Per-own-transaction latency records.
    pub exec_records: Vec<ExecRecord>,
}

/// Leader-schedule policy dispatch (the three configurations of
/// [`ScheduleConfig`]).
enum PolicyKind {
    RoundRobin(RoundRobinPolicy),
    Hammerhead(Box<HammerheadPolicy>),
    Static(StaticLeaderPolicy),
}

impl SchedulePolicy for PolicyKind {
    fn leader_at(&self, round: Round) -> ValidatorId {
        match self {
            PolicyKind::RoundRobin(p) => p.leader_at(round),
            PolicyKind::Hammerhead(p) => p.leader_at(round),
            PolicyKind::Static(p) => p.leader_at(round),
        }
    }
    fn initial_round(&self) -> Round {
        match self {
            PolicyKind::RoundRobin(p) => p.initial_round(),
            PolicyKind::Hammerhead(p) => p.initial_round(),
            PolicyKind::Static(p) => p.initial_round(),
        }
    }
    fn epoch(&self) -> u64 {
        match self {
            PolicyKind::RoundRobin(p) => p.epoch(),
            PolicyKind::Hammerhead(p) => p.epoch(),
            PolicyKind::Static(p) => p.epoch(),
        }
    }
    fn before_order_anchor(
        &mut self,
        anchor: &Vertex,
        dag: &Dag,
        ordered: &hh_types::DigestSet,
    ) -> ScheduleDecision {
        match self {
            PolicyKind::RoundRobin(p) => p.before_order_anchor(anchor, dag, ordered),
            PolicyKind::Hammerhead(p) => p.before_order_anchor(anchor, dag, ordered),
            PolicyKind::Static(p) => p.before_order_anchor(anchor, dag, ordered),
        }
    }
    fn on_vertex_ordered(&mut self, vertex: &Vertex, dag: &Dag) {
        match self {
            PolicyKind::RoundRobin(p) => p.on_vertex_ordered(vertex, dag),
            PolicyKind::Hammerhead(p) => p.on_vertex_ordered(vertex, dag),
            PolicyKind::Static(p) => p.on_vertex_ordered(vertex, dag),
        }
    }
}

/// A full HammerHead (or baseline Bullshark) validator.
///
/// See the module docs for the protocol flow and `hh-sim` for how nodes are
/// assembled into a network.
pub struct Validator<B: LogBackend> {
    id: ValidatorId,
    committee: Committee,
    config: ValidatorConfig,
    keypair: Keypair,

    dag: Dag,
    rbc: Rbc,
    engine: Bullshark<PolicyKind>,
    store: Option<ValidatorStore<B>>,

    /// The round of this validator's next proposal.
    next_round: Round,
    /// Time of the last own proposal (pacing basis).
    last_proposal_at: u64,
    /// Highest round known to hold quorum stake (cached).
    best_quorum_round: Option<Round>,

    tx_pool: VecDeque<Transaction>,
    /// Own transactions proposed but not yet committed (backpressure).
    uncommitted_txs: u64,

    /// When the (modelled) execution pipeline becomes free.
    exec_free_at: u64,

    /// Earliest armed wake-up, to suppress redundant timers.
    next_wake: u64,
    /// Suppress metric/persistence side effects during recovery replay.
    replaying: bool,
    /// Fail-stopped after a storage error; cleared by the next restart.
    halted: bool,
    /// Network address each client submitted from, for finality
    /// confirmations. Client addresses live outside the committee's id
    /// range; `ValidatorId` doubles as the generic network address here.
    client_addr: std::collections::HashMap<u32, ValidatorId>,

    /// Commit records awaiting collection by the safety checker (see
    /// [`Validator::take_commit_records`]). Replay commits land here
    /// too, flagged `replayed`.
    commit_log: Vec<CommitRecord>,

    metrics: ValidatorMetrics,
    /// Deduplicated equivocation evidence observed by this node. Like
    /// `metrics`, it survives [`Validator::on_restart`]: crash-recovery
    /// replay inserts straight into the DAG, so replayed vertices can
    /// never re-count evidence.
    evidence: EvidenceLedger,
}

impl<B: LogBackend> Validator<B> {
    /// Builds a validator. `backend` enables persistence and
    /// crash-recovery; pass `None` for a volatile node.
    pub fn new(
        committee: Committee,
        id: ValidatorId,
        config: ValidatorConfig,
        backend: Option<B>,
    ) -> Self {
        let keypair = committee.keypair(id);
        let policy = Self::build_policy(&committee, &config);
        Validator {
            id,
            keypair,
            dag: Dag::new(committee.clone()),
            rbc: Rbc::new(committee.clone(), id, config.broadcast_mode),
            engine: Bullshark::new(committee.clone(), policy),
            store: backend.map(ValidatorStore::new),
            next_round: Round(0),
            last_proposal_at: 0,
            best_quorum_round: None,
            tx_pool: VecDeque::new(),
            uncommitted_txs: 0,
            exec_free_at: 0,
            next_wake: u64::MAX,
            replaying: false,
            halted: false,
            client_addr: std::collections::HashMap::new(),
            commit_log: Vec::new(),
            metrics: ValidatorMetrics::default(),
            evidence: EvidenceLedger::new(),
            committee,
            config,
        }
    }

    fn build_policy(committee: &Committee, config: &ValidatorConfig) -> PolicyKind {
        match &config.schedule {
            ScheduleConfig::RoundRobin => {
                PolicyKind::RoundRobin(RoundRobinPolicy::new(SlotSchedule::round_robin(committee)))
            }
            ScheduleConfig::Hammerhead(h) => PolicyKind::Hammerhead(Box::new(
                HammerheadPolicy::new(committee.clone(), h.clone()),
            )),
            ScheduleConfig::StaticLeader(leader) => {
                PolicyKind::Static(StaticLeaderPolicy::new(*leader))
            }
        }
    }

    /// This validator's id.
    pub fn id(&self) -> ValidatorId {
        self.id
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &ValidatorMetrics {
        &self.metrics
    }

    /// Takes the latency records accumulated since the last call,
    /// leaving the buffer empty.
    ///
    /// Streaming harnesses drain this periodically so per-transaction
    /// state never accumulates for a whole run; the other counters in
    /// [`ValidatorMetrics`] are untouched.
    pub fn take_exec_records(&mut self) -> Vec<ExecRecord> {
        std::mem::take(&mut self.metrics.exec_records)
    }

    /// The local DAG (inspection).
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Takes the commit records accumulated since the last call, in
    /// commit order, leaving the buffer empty. The safety invariant
    /// checker (`hh-sim`) drains this after every run slice.
    pub fn take_commit_records(&mut self) -> Vec<CommitRecord> {
        std::mem::take(&mut self.commit_log)
    }

    /// Broadcast-layer retransmissions (sync re-requests + proposal
    /// re-broadcasts) since the last restart — the self-healing
    /// delivery's cost metric. Resets with the RBC state on restart.
    pub fn rbc_retransmits(&self) -> u64 {
        self.rbc.retransmits()
    }

    /// Deduplicated equivocation evidence observed by this node: each
    /// distinct twin pair per `(round, author)` slot is charged exactly
    /// once, no matter how often it is retransmitted.
    pub fn equivocation_evidence(&self) -> &EvidenceLedger {
        &self.evidence
    }

    /// Number of commits observed.
    pub fn commit_count(&self) -> u64 {
        self.engine.commit_count()
    }

    /// The commit chain hash (agreement checks).
    pub fn chain_hash(&self) -> Digest {
        self.engine.chain_hash()
    }

    /// Committed anchors in order.
    pub fn committed_anchors(&self) -> &[hh_types::VertexRef] {
        self.engine.committed_anchors()
    }

    /// The round of this validator's next proposal.
    pub fn current_round(&self) -> Round {
        self.next_round
    }

    /// The HammerHead policy, when configured.
    pub fn hammerhead_policy(&self) -> Option<&HammerheadPolicy> {
        match self.engine.policy() {
            PolicyKind::Hammerhead(p) => Some(p),
            _ => None,
        }
    }

    /// The leader this validator's schedule assigns to `round` (past
    /// rounds resolve through the schedule history) — the probe the
    /// re-inclusion analysis uses to find a validator's first
    /// post-recovery leader slot.
    pub fn leader_at(&self, round: Round) -> ValidatorId {
        self.engine.current_leader(round)
    }

    /// Whether the node has fail-stopped after a storage error (see
    /// [`Output::StorageError`]).
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Current pool depth (monitoring).
    pub fn pool_len(&self) -> usize {
        self.tx_pool.len()
    }

    /// Startup: arm the maintenance tick and propose the genesis vertex.
    pub fn on_start(&mut self, now: u64) -> Vec<Output> {
        if self.halted {
            return Vec::new();
        }
        let mut out = Vec::new();
        out.push(Output::SetTimer { delay_us: self.config.sync_tick_us, token: TOKEN_TICK });
        self.drive(now, &mut out);
        out
    }

    /// Handles a message from a peer validator or a client.
    ///
    /// Borrows the message: the network layer shares one frame between
    /// all recipients, and the broadcast layer's `Arc`'d vertex payloads
    /// mean nothing on this path needs an owned copy (a submitted
    /// transaction is the one small exception, cloned into the pool).
    pub fn on_message(
        &mut self,
        from: ValidatorId,
        msg: &ValidatorMessage,
        now: u64,
    ) -> Vec<Output> {
        if self.halted {
            return Vec::new();
        }
        let mut out = Vec::new();
        match msg {
            ValidatorMessage::Submit(tx) => {
                self.client_addr.insert(tx.id.client, from);
                if self.tx_pool.len() < self.config.pool_capacity {
                    self.tx_pool.push_back(*tx);
                    self.metrics.txs_accepted += 1;
                } else {
                    self.metrics.txs_shed += 1;
                    // Failure confirmation so the client's in-flight window
                    // does not leak.
                    out.push(Output::Send(
                        from,
                        ValidatorMessage::Confirm { id: tx.id, executed_at: u64::MAX },
                    ));
                }
            }
            ValidatorMessage::Rbc(rbc_msg) => {
                let fx = self.rbc.handle(from, rbc_msg, &mut self.dag);
                self.absorb_rbc(fx, now, &mut out);
            }
            ValidatorMessage::Confirm { .. } => {
                // Validators never consume confirmations.
            }
        }
        self.drive(now, &mut out);
        out
    }

    /// Handles a timer armed through an earlier [`Output::SetTimer`].
    pub fn on_timer(&mut self, token: u64, now: u64) -> Vec<Output> {
        if self.halted {
            return Vec::new();
        }
        let mut out = Vec::new();
        match token {
            TOKEN_TICK => {
                let fx = self.rbc.tick(&self.dag);
                self.absorb_rbc(fx, now, &mut out);
                out.push(Output::SetTimer {
                    delay_us: self.config.sync_tick_us,
                    token: TOKEN_TICK,
                });
            }
            TOKEN_ROUND | TOKEN_LEADER if self.next_wake <= now => {
                self.next_wake = u64::MAX;
            }
            _ => {}
        }
        self.drive(now, &mut out);
        out
    }

    /// Restart after a crash: drop all volatile state and rebuild from the
    /// persistent store (if any), then resume proposing.
    ///
    /// Commits are recomputed by replaying persisted vertices through a
    /// fresh engine — never trusted from disk — and cross-checked against
    /// the last durable checkpoint.
    pub fn on_restart(&mut self, now: u64) -> Vec<Output> {
        self.metrics.restarts += 1;
        // A restart clears a storage-fault halt: the node retries against
        // its (possibly repaired) store from scratch.
        self.halted = false;
        // Volatile state dies with the crash.
        self.dag = Dag::new(self.committee.clone());
        self.rbc = Rbc::new(self.committee.clone(), self.id, self.config.broadcast_mode);
        self.engine = Bullshark::new(
            self.committee.clone(),
            Self::build_policy(&self.committee, &self.config),
        );
        self.tx_pool.clear();
        self.uncommitted_txs = 0;
        self.exec_free_at = now;
        self.next_wake = u64::MAX;
        self.next_round = Round(0);
        self.best_quorum_round = None;

        if let Some(store) = &self.store {
            let recovered = match store.recover() {
                Ok(recovered) => recovered,
                Err(e) => {
                    let mut out = Vec::new();
                    self.halt_on_storage_error("recover", &e, &mut out);
                    return out;
                }
            };
            self.replaying = true;
            for vertex in recovered.vertices {
                let digest = vertex.digest();
                let author = vertex.author();
                let round = vertex.round();
                if self.dag.try_insert(vertex).is_ok() {
                    if author == self.id {
                        self.uncommitted_txs +=
                            self.dag.get(&digest).map(|v| v.block().len() as u64).unwrap_or(0);
                        if round >= self.next_round {
                            self.next_round = round.next();
                        }
                    }
                    let arc = self.dag.get(&digest).expect("just inserted").clone();
                    self.note_quorum(arc.round());
                    let commits = self.engine.process_vertex(&arc, &self.dag);
                    let mut replay_out = Vec::new();
                    for sd in commits {
                        self.on_commit(sd, now, &mut replay_out);
                    }
                    debug_assert!(replay_out.is_empty(), "replay must not emit effects");
                }
            }
            self.replaying = false;
            // Cross-check the recomputed chain against the durable
            // checkpoint.
            if let Some((idx, expected)) = recovered.last_checkpoint {
                let anchors = self.engine.committed_anchors();
                if anchors.len() < idx as usize
                    || chain_hash_prefix(&anchors[..idx as usize]) != expected
                {
                    self.metrics.recovery_divergence = true;
                }
            }
        }

        self.last_proposal_at = now;
        let mut out = Vec::new();
        out.push(Output::SetTimer { delay_us: self.config.sync_tick_us, token: TOKEN_TICK });
        // Re-announce our latest vertex so peers learn we are back and can
        // serve us anything we missed (their responses resync us forward).
        if self.next_round.0 > 0 {
            if let Some(v) = self.dag.vertex_by_author(self.next_round.prev(), self.id) {
                out.push(Output::Broadcast(ValidatorMessage::Rbc(RbcMessage::Vertex(v.clone()))));
            }
        }
        self.drive(now, &mut out);
        out
    }

    /// Graceful shutdown: persist a final commit checkpoint and force the
    /// store to durable media, so a subsequent [`Validator::on_restart`]
    /// recovers to the exact shutdown state without replay divergence.
    ///
    /// Idempotent and safe on a halted node (a storage fault during the
    /// flush is surfaced as [`Output::StorageError`], like any other write
    /// failure). The real-node runtime (`hh-node`) calls this when its
    /// control stdin closes, before exiting; the simulator never needs it
    /// because `MemBackend` has nothing to flush.
    pub fn on_shutdown(&mut self, _now: u64) -> Vec<Output> {
        let mut out = Vec::new();
        if let Some(store) = &mut self.store {
            let result = store
                .persist_checkpoint(self.engine.commit_count(), self.engine.chain_hash())
                .and_then(|()| store.sync());
            if let Err(e) = result {
                self.halt_on_storage_error("shutdown flush", &e, &mut out);
            }
        }
        out
    }

    /// Routes broadcast-layer outputs and feeds delivered vertices to the
    /// consensus engine.
    fn absorb_rbc(&mut self, fx: hh_rbc::RbcEffects, now: u64, out: &mut Vec<Output>) {
        for (to, msg) in fx.send {
            out.push(Output::Send(to, ValidatorMessage::Rbc(msg)));
        }
        for msg in fx.broadcast {
            out.push(Output::Broadcast(ValidatorMessage::Rbc(msg)));
        }
        for ev in &fx.evidence {
            self.evidence.observe_evidence(ev);
        }
        for vertex in fx.delivered {
            self.on_delivered(vertex, now, out);
        }
    }

    fn on_delivered(&mut self, vertex: Arc<Vertex>, now: u64, out: &mut Vec<Output>) {
        if self.halted {
            return;
        }
        if !self.replaying {
            if let Some(store) = &mut self.store {
                // Persist before acting (write-ahead discipline): on an
                // I/O failure the vertex is dropped un-acted-upon and the
                // node fail-stops.
                if let Err(e) = store.persist_vertex(&vertex) {
                    self.halt_on_storage_error("persist vertex", &e, out);
                    return;
                }
            }
        }
        self.note_quorum(vertex.round());
        let commits = self.engine.process_vertex(&vertex, &self.dag);
        for sd in commits {
            self.on_commit(sd, now, out);
        }
    }

    /// Fail-stop on a storage fault: record it, surface a typed
    /// [`Output::StorageError`], and ignore further input until restart.
    fn halt_on_storage_error(
        &mut self,
        context: &'static str,
        error: &dyn std::fmt::Display,
        out: &mut Vec<Output>,
    ) {
        self.metrics.storage_errors += 1;
        self.halted = true;
        out.push(Output::StorageError { context, detail: error.to_string() });
    }

    fn note_quorum(&mut self, round: Round) {
        if self.best_quorum_round.is_none_or(|b| round > b) && self.dag.is_quorum_at(round) {
            self.best_quorum_round = Some(round);
        }
    }

    fn on_commit(&mut self, sd: CommittedSubDag, now: u64, out: &mut Vec<Output>) {
        self.metrics.commits += 1;
        self.commit_log.push(CommitRecord {
            index: sd.commit_index,
            anchor: sd.anchor,
            vertices: sd.vertices.iter().map(|v| v.reference()).collect(),
            replayed: self.replaying,
        });
        let tx_interval_us = 1_000_000 / self.config.exec_rate_tps.max(1);
        for vertex in &sd.vertices {
            let own = vertex.author() == self.id;
            if own {
                self.uncommitted_txs =
                    self.uncommitted_txs.saturating_sub(vertex.block().len() as u64);
            }
            for tx in vertex.block().transactions() {
                // Every validator executes every committed transaction at a
                // bounded rate (the Sui execution-pipeline stand-in).
                let start = self.exec_free_at.max(now);
                let finish = start + tx_interval_us;
                self.exec_free_at = finish;
                if !self.replaying {
                    self.metrics.bytes_committed += tx.wire_bytes() as u64;
                }
                if own && !self.replaying {
                    self.metrics.own_txs_committed += 1;
                    self.metrics.exec_records.push(ExecRecord {
                        submitted_at: tx.submitted_at,
                        committed_at: now,
                        executed_at: finish,
                        bytes: tx.wire_bytes().min(u32::MAX as usize) as u32,
                    });
                    // Finality confirmation to the submitting client.
                    if let Some(addr) = self.client_addr.get(&tx.id.client) {
                        out.push(Output::Send(
                            *addr,
                            ValidatorMessage::Confirm { id: tx.id, executed_at: finish },
                        ));
                    }
                }
            }
        }
        if !self.replaying {
            if let Some(store) = &mut self.store {
                if sd.commit_index.is_multiple_of(self.config.checkpoint_interval.max(1)) {
                    let result = store
                        .persist_checkpoint(self.engine.commit_count(), self.engine.chain_hash());
                    if let Err(e) = result {
                        self.halt_on_storage_error("persist checkpoint", &e, out);
                        return;
                    }
                }
            }
        }
        // Garbage-collect far-ordered history.
        let anchor_round = sd.anchor.round;
        if anchor_round.0 > self.config.gc_depth {
            self.dag.gc(Round(anchor_round.0 - self.config.gc_depth));
        }
    }

    /// The proposer loop: advance as many rounds as conditions allow; on a
    /// time-gated condition, arm a precise wake-up timer.
    fn drive(&mut self, now: u64, out: &mut Vec<Output>) {
        loop {
            if self.halted {
                return;
            }
            if self.next_round == Round(0) {
                self.propose(Round(0), now, out);
                continue;
            }
            // Catch-up: if some higher round already has quorum, jump.
            let mut prev = self.next_round.prev();
            if let Some(best) = self.best_quorum_round {
                if best >= self.next_round {
                    self.next_round = best.next();
                    prev = best;
                }
            }
            if !self.dag.is_quorum_at(prev) {
                return; // wait for deliveries
            }
            let elapsed = now.saturating_sub(self.last_proposal_at);
            if elapsed < self.config.min_round_delay_us {
                self.arm_wake(
                    now,
                    self.last_proposal_at + self.config.min_round_delay_us,
                    TOKEN_ROUND,
                    out,
                );
                return;
            }
            if prev.is_even() {
                let leader = self.engine.current_leader(prev);
                if leader != self.id && self.dag.vertex_by_author(prev, leader).is_none() {
                    if elapsed < self.config.leader_timeout_us {
                        self.arm_wake(
                            now,
                            self.last_proposal_at + self.config.leader_timeout_us,
                            TOKEN_LEADER,
                            out,
                        );
                        return;
                    }
                    self.metrics.leader_timeouts += 1;
                }
            }
            let round = self.next_round;
            self.propose(round, now, out);
        }
    }

    fn arm_wake(&mut self, now: u64, deadline: u64, token: u64, out: &mut Vec<Output>) {
        if deadline < self.next_wake || self.next_wake <= now {
            self.next_wake = deadline;
            out.push(Output::SetTimer { delay_us: deadline.saturating_sub(now).max(1), token });
        }
    }

    fn propose(&mut self, round: Round, now: u64, out: &mut Vec<Output>) {
        let parents: Vec<Digest> = if round.0 == 0 {
            Vec::new()
        } else {
            // `round_vertices` iterates the round's author-indexed slot
            // table, so parents come out in ascending author order —
            // identical DAG state yields identical vertex digests.
            self.dag.round_vertices(round.prev()).map(|v| v.digest()).collect()
        };
        // Backpressure: stop pulling from the pool once too many of our
        // transactions sit uncommitted.
        let budget = (self.config.max_uncommitted_txs as u64).saturating_sub(self.uncommitted_txs);
        let max_take = self.tx_pool.len().min(self.config.max_block_txs).min(budget as usize);
        // Byte bound: batch until the next transaction would overflow
        // `max_block_bytes`; the first transaction always fits so an
        // oversized one cannot wedge the pool.
        let mut take = 0;
        let mut batch_bytes = 0usize;
        while take < max_take {
            let wire = self.tx_pool[take].wire_bytes();
            if take > 0 && batch_bytes.saturating_add(wire) > self.config.max_block_bytes {
                break;
            }
            batch_bytes += wire;
            take += 1;
        }
        let batch: Vec<Transaction> = self.tx_pool.drain(..take).collect();
        self.uncommitted_txs += batch.len() as u64;
        if !batch.is_empty() {
            self.metrics.bytes_proposed += batch_bytes as u64;
        }

        let vertex = Vertex::new(round, self.id, Block::new(batch), parents, &self.keypair);
        self.metrics.proposals += 1;
        let fx = self.rbc.broadcast_own(vertex, &mut self.dag);
        self.absorb_rbc(fx, now, out);
        self.next_round = round.next();
        self.last_proposal_at = now;
    }
}

/// Recomputes the commit chain hash over an anchor prefix (checkpoint
/// cross-check during recovery).
fn chain_hash_prefix(anchors: &[hh_types::VertexRef]) -> Digest {
    let mut hash = Digest::ZERO;
    for a in anchors {
        let mut h = Sha256::new();
        h.update(hash.as_bytes());
        h.update(a.digest.as_bytes());
        hash = h.finalize();
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_storage::MemBackend;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Drives a single validator through its timers: a committee of one has
    /// quorum 1, so the node self-paces rounds and commits alone —
    /// exercising the full propose → deliver → commit → execute pipeline
    /// without a network.
    struct SoloPump {
        v: Validator<MemBackend>,
        now: u64,
        timers: BinaryHeap<Reverse<(u64, u64)>>,
    }

    impl SoloPump {
        fn new(config: ValidatorConfig, backend: Option<MemBackend>) -> Self {
            let committee = Committee::new_equal_stake(1);
            let v = Validator::new(committee, ValidatorId(0), config, backend);
            SoloPump { v, now: 0, timers: BinaryHeap::new() }
        }

        fn start(&mut self) {
            let out = self.v.on_start(self.now);
            self.absorb(out);
        }

        fn absorb(&mut self, out: Vec<Output>) {
            for o in out {
                match o {
                    Output::SetTimer { delay_us, token } => {
                        self.timers.push(Reverse((self.now + delay_us, token)));
                    }
                    // Committee of one: no peers to send to.
                    Output::Send(_, _) | Output::Broadcast(_) => {}
                    Output::StorageError { context, detail } => {
                        panic!("unexpected storage error ({context}): {detail}")
                    }
                }
            }
        }

        fn run_until(&mut self, deadline: u64) {
            while let Some(Reverse((at, token))) = self.timers.peek().copied() {
                if at > deadline {
                    break;
                }
                self.timers.pop();
                self.now = at;
                let out = self.v.on_timer(token, self.now);
                self.absorb(out);
            }
            self.now = deadline;
        }

        fn submit(&mut self, tx: Transaction) {
            let out = self.v.on_message(ValidatorId(0), &ValidatorMessage::Submit(tx), self.now);
            self.absorb(out);
        }
    }

    fn fast_config() -> ValidatorConfig {
        ValidatorConfig {
            min_round_delay_us: 1_000,
            leader_timeout_us: 10_000,
            sync_tick_us: 50_000,
            ..ValidatorConfig::default()
        }
    }

    #[test]
    fn solo_validator_commits_and_executes() {
        let mut pump = SoloPump::new(fast_config(), None);
        pump.start();
        for i in 0..10 {
            pump.submit(Transaction::new(0, i, 0));
        }
        pump.run_until(1_000_000);
        assert!(pump.v.commit_count() > 10, "commits: {}", pump.v.commit_count());
        assert_eq!(pump.v.metrics().txs_accepted, 10);
        assert_eq!(pump.v.metrics().own_txs_committed, 10);
        assert_eq!(pump.v.metrics().exec_records.len(), 10);
        for rec in &pump.v.metrics().exec_records {
            assert!(rec.committed_at >= rec.submitted_at);
            assert!(rec.executed_at > rec.committed_at);
        }
        // No leader timeouts: the solo node is always its own leader.
        assert_eq!(pump.v.metrics().leader_timeouts, 0);
    }

    #[test]
    fn pool_capacity_sheds_excess() {
        let config = ValidatorConfig { pool_capacity: 5, ..fast_config() };
        let mut pump = SoloPump::new(config, None);
        pump.start();
        // Submit while the proposer is paced out, so the pool fills up.
        for i in 0..10 {
            pump.submit(Transaction::new(0, i, 0));
        }
        let m = pump.v.metrics();
        assert_eq!(m.txs_accepted + m.txs_shed, 10);
        assert!(m.txs_shed > 0, "pool should shed beyond capacity");
    }

    #[test]
    fn rounds_are_paced() {
        let config = ValidatorConfig { min_round_delay_us: 100_000, ..fast_config() };
        let mut pump = SoloPump::new(config, None);
        pump.start();
        pump.run_until(1_000_000);
        // ~1s / 100ms pacing → about 10 proposals (plus genesis).
        let proposals = pump.v.metrics().proposals;
        assert!((8..=13).contains(&proposals), "proposals: {proposals}");
    }

    #[test]
    fn crash_recovery_restores_commits_from_storage() {
        let backend = MemBackend::new();
        let mut pump = SoloPump::new(fast_config(), Some(backend.clone()));
        pump.start();
        for i in 0..5 {
            pump.submit(Transaction::new(0, i, 0));
        }
        pump.run_until(500_000);
        let commits_before = pump.v.commit_count();
        let chain_before = pump.v.chain_hash();
        assert!(commits_before > 0);

        // Crash: rebuild the validator object from the same backend.
        let committee = Committee::new_equal_stake(1);
        let mut revived: Validator<MemBackend> =
            Validator::new(committee, ValidatorId(0), fast_config(), Some(backend));
        let out = revived.on_restart(600_000);
        assert!(!out.is_empty());
        assert!(revived.commit_count() >= commits_before.saturating_sub(1));
        assert!(!revived.metrics().recovery_divergence, "checkpoint must match");
        // The recomputed prefix extends the pre-crash chain.
        let prefix = chain_hash_prefix(&revived.committed_anchors()[..commits_before as usize]);
        assert_eq!(prefix, chain_before);
        // Replay must not duplicate execution records.
        assert!(revived.metrics().exec_records.is_empty());
        // And the node keeps committing after recovery.
        let mut pump2 = SoloPump { v: revived, now: 600_000, timers: BinaryHeap::new() };
        pump2.absorb(out);
        pump2.run_until(1_200_000);
        assert!(pump2.v.commit_count() > commits_before);
    }

    /// A backend that accepts a fixed number of appends, then fails every
    /// write — the "disk full / device gone" shape.
    #[derive(Clone, Debug)]
    struct FailingBackend {
        inner: MemBackend,
        appends_left: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl FailingBackend {
        fn failing_after(appends: usize) -> Self {
            FailingBackend {
                inner: MemBackend::new(),
                appends_left: std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(appends)),
            }
        }
    }

    impl hh_storage::LogBackend for FailingBackend {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            use std::sync::atomic::Ordering;
            let left = self.appends_left.load(Ordering::SeqCst);
            if left == 0 {
                return Err(std::io::Error::other("injected append failure"));
            }
            self.appends_left.store(left - 1, Ordering::SeqCst);
            self.inner.append(bytes)
        }
        fn read_all(&self) -> std::io::Result<Vec<u8>> {
            self.inner.read_all()
        }
        fn rewrite(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.inner.rewrite(bytes)
        }
        fn len(&self) -> usize {
            hh_storage::LogBackend::len(&self.inner)
        }
    }

    #[test]
    fn storage_failure_fail_stops_instead_of_panicking() {
        // A solo validator on a backend that dies after 3 appends: the
        // node must surface Output::StorageError, halt, and never panic.
        let committee = Committee::new_equal_stake(1);
        let backend = FailingBackend::failing_after(3);
        let appends_left = backend.appends_left.clone();
        let mut v: Validator<FailingBackend> =
            Validator::new(committee, ValidatorId(0), fast_config(), Some(backend));
        let mut timers: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut storage_errors = Vec::new();
        let absorb = |out: Vec<Output>,
                      now: u64,
                      timers: &mut BinaryHeap<Reverse<(u64, u64)>>,
                      errors: &mut Vec<&'static str>| {
            for o in out {
                match o {
                    Output::SetTimer { delay_us, token } => {
                        timers.push(Reverse((now + delay_us, token)));
                    }
                    Output::StorageError { context, detail } => {
                        assert!(detail.contains("injected append failure"), "{detail}");
                        errors.push(context);
                    }
                    Output::Send(_, _) | Output::Broadcast(_) => {}
                }
            }
        };

        let out = v.on_start(0);
        absorb(out, 0, &mut timers, &mut storage_errors);
        let mut now = 0u64;
        while let Some(Reverse((at, token))) = timers.peek().copied() {
            if at > 2_000_000 {
                break;
            }
            timers.pop();
            now = at;
            let out = v.on_timer(token, now);
            absorb(out, now, &mut timers, &mut storage_errors);
        }

        assert_eq!(storage_errors.len(), 1, "one typed error, then silence: {storage_errors:?}");
        assert!(
            storage_errors[0] == "persist vertex" || storage_errors[0] == "persist checkpoint",
            "{storage_errors:?}"
        );
        assert_eq!(v.metrics().storage_errors, 1);
        assert!(v.is_halted(), "the node fail-stops");
        let proposals_at_halt = v.metrics().proposals;
        // Further input is ignored without panicking.
        let out = v.on_message(
            ValidatorId(0),
            &ValidatorMessage::Submit(Transaction::new(0, 0, now)),
            now,
        );
        assert!(out.is_empty(), "halted node emits nothing");
        assert_eq!(v.metrics().proposals, proposals_at_halt);

        // A restart against a repaired store clears the halt and resumes.
        appends_left.store(usize::MAX, std::sync::atomic::Ordering::SeqCst);
        let out = v.on_restart(now + 1_000);
        assert!(!v.is_halted());
        assert!(!out.is_empty(), "restart resumes the protocol");
        assert!(!v.metrics().recovery_divergence);
    }

    #[test]
    fn block_bytes_cap_bounds_batches_by_payload() {
        // 1000-byte payloads (1020 wire bytes each) under a 4 KiB block
        // cap: at most 4 transactions fit a block, although
        // max_block_txs would allow all 10 at once.
        let config = ValidatorConfig {
            max_block_bytes: 4_096,
            max_block_txs: 100,
            min_round_delay_us: 100_000,
            ..fast_config()
        };
        let mut pump = SoloPump::new(config, None);
        pump.start();
        for i in 0..10 {
            pump.submit(Transaction::with_payload(0, i, 0, 1_000));
        }
        pump.run_until(2_000_000);
        let m = pump.v.metrics();
        assert_eq!(m.own_txs_committed, 10, "everything commits across several blocks");
        assert_eq!(m.bytes_proposed, 10 * 1_020, "all batched bytes are accounted");
        assert_eq!(m.bytes_committed, 10 * 1_020);
        for rec in &m.exec_records {
            assert_eq!(rec.bytes, 1_020);
        }
        // With 100 ms pacing and all 10 txs pooled up front, an
        // unbounded proposer drains the pool into one block (one commit
        // instant); the byte cap forces several blocks across rounds.
        let commit_instants = m
            .exec_records
            .iter()
            .map(|r| r.committed_at)
            .collect::<std::collections::BTreeSet<_>>();
        assert!(
            commit_instants.len() >= 2,
            "payloads must spread across blocks, got commit instants {commit_instants:?}"
        );
    }

    #[test]
    fn oversized_transaction_still_ships_alone() {
        // One transaction bigger than the whole block cap must still be
        // proposed (alone) instead of wedging the pool forever.
        let config = ValidatorConfig { max_block_bytes: 64, max_block_txs: 100, ..fast_config() };
        let mut pump = SoloPump::new(config, None);
        pump.start();
        pump.submit(Transaction::with_payload(0, 0, 0, 10_000));
        pump.submit(Transaction::with_payload(0, 1, 0, 10_000));
        pump.run_until(1_000_000);
        assert_eq!(pump.v.metrics().own_txs_committed, 2);
    }

    #[test]
    fn backpressure_limits_uncommitted() {
        // Tiny budget: only 3 txs may be in flight.
        let config = ValidatorConfig { max_uncommitted_txs: 3, max_block_txs: 10, ..fast_config() };
        let mut pump = SoloPump::new(config, None);
        pump.start();
        for i in 0..9 {
            pump.submit(Transaction::new(0, i, 0));
        }
        pump.run_until(2_000_000);
        // All eventually commit (budget releases on commit), but never more
        // than 3 in one block.
        assert_eq!(pump.v.metrics().own_txs_committed, 9);
    }

    #[test]
    fn hammerhead_config_builds_and_runs_solo() {
        let config = ValidatorConfig {
            schedule: ScheduleConfig::Hammerhead(crate::HammerheadConfig {
                period_rounds: 4,
                ..Default::default()
            }),
            ..fast_config()
        };
        let mut pump = SoloPump::new(config, None);
        pump.start();
        pump.run_until(1_000_000);
        assert!(pump.v.commit_count() > 4);
        let policy = pump.v.hammerhead_policy().expect("hammerhead policy");
        assert!(policy.epoch() >= 1, "schedule rotated for solo committee");
    }
}

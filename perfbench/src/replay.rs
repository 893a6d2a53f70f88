//! The per-layer replay: one validator's vertex sequence pushed through
//! each crate's public functions, with a span around every call.
//!
//! The order follows a real delivery: `codec` (frame encode, decode) →
//! `crypto` (signature check on the freshly decoded copy, so the verify
//! memo of the simulator's shared vertex hides no work) → `rbc`
//! (`Rbc::handle`, whose DAG insert is timed on a twin DAG) → `storage`
//! (`ValidatorStore::persist_vertex`, write-ahead like the validator) →
//! `consensus` (`Bullshark::process_vertex`, with the HammerHead policy
//! behind a timing adapter and each commit's sub-DAG walk timed on the
//! same DAG afterwards).

use crate::trace::Tracer;
use hammerhead::{HammerheadPolicy, ScheduleConfig, Validator, ValidatorConfig, ValidatorMessage};
use hh_consensus::{Bullshark, ScheduleDecision, SchedulePolicy};
use hh_dag::Dag;
use hh_rbc::{BroadcastMode, Rbc, RbcMessage};
use hh_storage::{LogBackend, ValidatorStore};
use hh_types::codec::{decode_framed, encode_framed, encode_to_vec};
use hh_types::{Committee, DigestSet, Round, ValidatorId, Vertex, VertexRef};
use std::sync::Arc;
use std::time::Instant;

/// The timing adapter around the workload's schedule policy. It records
/// one span per policy callback, to be attached to the enclosing
/// `process_vertex` span once that call returns.
struct TimedPolicy {
    inner: HammerheadPolicy,
    origin: Instant,
    spans: Vec<(&'static str, u64, u64)>,
}

impl TimedPolicy {
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut HammerheadPolicy) -> R) -> R {
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(&mut self.inner);
        self.spans.push((name, start, self.origin.elapsed().as_nanos() as u64));
        out
    }
}

impl SchedulePolicy for TimedPolicy {
    fn leader_at(&self, round: Round) -> ValidatorId {
        self.inner.leader_at(round)
    }

    fn initial_round(&self) -> Round {
        self.inner.initial_round()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn before_order_anchor(
        &mut self,
        anchor: &Vertex,
        dag: &Dag,
        ordered: &DigestSet,
    ) -> ScheduleDecision {
        self.timed("policy.before_order", |p| p.before_order_anchor(anchor, dag, ordered))
    }

    fn on_vertex_ordered(&mut self, vertex: &Vertex, dag: &Dag) {
        self.timed("policy.on_vertex_ordered", |p| p.on_vertex_ordered(vertex, dag))
    }
}

/// Work counts of a replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Vertices fed in.
    pub vertices: u64,
    /// Parent links of those vertices.
    pub parents: u64,
    /// Vertices the broadcast layer delivered.
    pub delivered: u64,
    /// Of those, vertices other validators authored (the ones a message
    /// had to bring).
    pub delivered_from_peers: u64,
    /// Encoded vertex frame bytes.
    pub frame_bytes: u64,
    /// Sub-DAGs committed.
    pub commits: u64,
    /// Vertices across those sub-DAGs.
    pub committed_vertices: u64,
}

/// One validator's layers, fed from outside.
pub struct LayerReplay<B: LogBackend> {
    committee: Committee,
    me: ValidatorId,
    gc_depth: u64,
    rbc: Rbc,
    dag: Dag,
    twin: Dag,
    engine: Bullshark<TimedPolicy>,
    ordered: DigestSet,
    store: ValidatorStore<B>,
    counts: ReplayCounts,
}

impl<B: LogBackend> LayerReplay<B> {
    /// Layers of validator `me` under `config`, persisting to `backend`.
    ///
    /// # Errors
    ///
    /// The replay feeds plain vertex pushes, so it needs the best-effort
    /// broadcast mode; and the timing adapter wraps the HammerHead policy,
    /// the schedule every workload runs.
    pub fn new(
        committee: &Committee,
        me: ValidatorId,
        config: &ValidatorConfig,
        backend: B,
        tracer: &Tracer,
    ) -> Result<Self, String> {
        let ScheduleConfig::Hammerhead(hh) = &config.schedule else {
            return Err("the replay wraps the hammerhead schedule only".into());
        };
        if config.broadcast_mode != BroadcastMode::BestEffort {
            return Err("the replay needs the best-effort broadcast mode".into());
        }
        // The same reachability window the validator builds its DAG with.
        let window = (config.gc_depth as usize).clamp(2, hh_dag::DEFAULT_REACH_WINDOW);
        let policy = TimedPolicy {
            inner: HammerheadPolicy::new(committee.clone(), hh.clone()),
            origin: tracer.origin(),
            spans: Vec::new(),
        };
        Ok(LayerReplay {
            committee: committee.clone(),
            me,
            gc_depth: config.gc_depth,
            rbc: Rbc::new(committee.clone(), me, config.broadcast_mode),
            dag: Dag::with_reach_window(committee.clone(), window),
            twin: Dag::with_reach_window(committee.clone(), window),
            engine: Bullshark::new(committee.clone(), policy),
            ordered: DigestSet::default(),
            store: ValidatorStore::new(backend),
            counts: ReplayCounts::default(),
        })
    }

    /// Work done so far.
    pub fn counts(&self) -> ReplayCounts {
        self.counts
    }

    /// Anchors committed so far, in order.
    pub fn committed_anchors(&self) -> &[VertexRef] {
        self.engine.committed_anchors()
    }

    /// The policy's schedule counter.
    pub fn epochs(&self) -> u64 {
        self.engine.policy().inner.epoch()
    }

    /// Validators the latest schedule change excluded.
    pub fn excluded(&self) -> usize {
        self.engine.policy().inner.epoch_history().last().map_or(0, |e| e.excluded.len())
    }

    /// Bytes in the replay's WAL.
    pub fn wal_bytes(&self) -> usize {
        self.store.size_bytes()
    }

    /// Feeds one vertex through every layer.
    ///
    /// # Errors
    ///
    /// A frame that does not decode back to the same vertex, a signature
    /// that does not verify, a failed WAL append, or a commit walk that
    /// disagrees with the engine's.
    pub fn feed(&mut self, tr: &mut Tracer, vertex: &Arc<Vertex>) -> Result<(), String> {
        self.counts.vertices += 1;
        self.counts.parents += vertex.parents().len() as u64;
        // codec: the vertex frame as it travels between nodes, encoded from
        // a copy without the simulator's encoding memo, as its author does.
        let msg = ValidatorMessage::Rbc(RbcMessage::Vertex(Arc::new((**vertex).clone())));
        let (enc, frame) = tr.time("codec.encode", None, || encode_framed(&msg));
        self.counts.frame_bytes += frame.len() as u64;
        let payload = &frame[..frame.len() - 4];
        tr.time("crypto.crc", Some(enc), || std::hint::black_box(hh_crypto::crc32(payload)));
        let (dec, decoded) = tr.time("codec.decode", None, || decode_framed(&frame));
        tr.time("crypto.crc", Some(dec), || std::hint::black_box(hh_crypto::crc32(payload)));
        let fresh = match decoded {
            Ok(ValidatorMessage::Rbc(RbcMessage::Vertex(v))) if *v == **vertex => v,
            _ => return Err(format!("vertex {} did not survive its frame", vertex.reference())),
        };
        // The digest input: the vertex's canonical encoding, hashed once
        // inside the decode above.
        let digest_input = encode_to_vec(&*fresh);
        tr.time("crypto.digest", Some(dec), || hh_crypto::sha256(&digest_input));

        // crypto: a fresh copy carries no verify memo.
        let key = self.committee.validator(fresh.author()).map_err(|e| e.to_string())?.public_key();
        let (_, ok) = tr.time("crypto.verify", None, || fresh.verify(key));
        if !ok {
            return Err(format!("signature of {} did not verify", fresh.reference()));
        }

        // rbc, with its DAG insert repeated on the twin DAG.
        let push = RbcMessage::Vertex(fresh.clone());
        let (rbc_span, fx) =
            tr.time("rbc.handle", None, || self.rbc.handle(fresh.author(), &push, &mut self.dag));
        for d in &fx.delivered {
            let (_, inserted) =
                tr.time("dag.insert", Some(rbc_span), || self.twin.try_insert_arc(d.clone()));
            inserted.map_err(|e| format!("twin DAG rejected {}: {e}", d.reference()))?;
        }
        for d in fx.delivered {
            self.counts.delivered += 1;
            self.counts.delivered_from_peers += u64::from(d.author() != self.me);
            self.deliver(tr, &d)?;
        }
        Ok(())
    }

    fn deliver(&mut self, tr: &mut Tracer, v: &Arc<Vertex>) -> Result<(), String> {
        // Write-ahead: persist before consensus sees the vertex. The
        // encoding is the codec's cost, so it is memoized first, as it is
        // for every simulated validator but the first to persist a vertex.
        v.encoded_bytes();
        let (_, stored) = tr.time("storage.append", None, || self.store.persist_vertex(v));
        stored.map_err(|e| format!("WAL append: {e}"))?;

        let (pv, commits) =
            tr.time("consensus.process_vertex", None, || self.engine.process_vertex(v, &self.dag));
        for (name, start, end) in self.engine.policy_mut().spans.drain(..) {
            tr.record(name, start, end, Some(pv));
        }
        for sd in commits {
            self.counts.commits += 1;
            self.counts.committed_vertices += sd.vertices.len() as u64;
            let anchor = self
                .dag
                .get(&sd.anchor.digest)
                .cloned()
                .ok_or_else(|| format!("committed anchor {} not in the DAG", sd.anchor))?;
            let ordered = &self.ordered;
            let (_, walked) = tr.time("dag.causal_sub_dag", Some(pv), || {
                self.dag.causal_sub_dag(&anchor, |d| ordered.contains(d))
            });
            if walked.len() != sd.vertices.len() {
                return Err(format!(
                    "sub-DAG walk of {} found {} vertices, the engine ordered {}",
                    sd.anchor,
                    walked.len(),
                    sd.vertices.len()
                ));
            }
            self.ordered.extend(sd.vertices.iter().map(|v| v.digest()));
            // Garbage collection as the validator does it on commit.
            if sd.anchor.round.0 > self.gc_depth {
                let horizon = Round(sd.anchor.round.0 - self.gc_depth);
                self.dag.gc(horizon);
                self.twin.gc(horizon);
            }
        }
        Ok(())
    }

    /// Forces the WAL to durable media (`storage.sync`).
    ///
    /// # Errors
    ///
    /// The backend's sync error.
    pub fn sync(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let (_, synced) = tr.time("storage.sync", None, || self.store.sync());
        synced.map_err(|e| format!("WAL sync: {e}"))
    }
}

/// Restarts a validator over the WAL in `backend` (`storage.recover`: the
/// read path, `Validator::on_restart`) and returns it for inspection.
pub fn recover<B: LogBackend>(
    tr: &mut Tracer,
    committee: &Committee,
    me: ValidatorId,
    config: &ValidatorConfig,
    backend: B,
) -> Validator<B> {
    let mut v = Validator::new(committee.clone(), me, config.clone(), Some(backend));
    tr.time("storage.recover", None, || v.on_restart(0));
    v
}

/// Share of even rounds in `[first, last]` committed anchor rounds that
/// have no committed anchor.
pub fn skipped_anchor_share(anchors: &[VertexRef]) -> f64 {
    let (Some(first), Some(last)) = (anchors.first(), anchors.last()) else {
        return 0.0;
    };
    let even_rounds = (last.round.0 - first.round.0) / 2 + 1;
    1.0 - anchors.len() as f64 / even_rounds as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammerhead::HammerheadConfig;
    use hh_storage::MemBackend;
    use hh_types::Block;

    /// A full DAG of `rounds` rounds over a 4-validator committee, in
    /// `(round, author)` order.
    fn full_dag(committee: &Committee, rounds: u64) -> Vec<Arc<Vertex>> {
        let mut out: Vec<Arc<Vertex>> = Vec::new();
        let mut prev: Vec<hh_crypto::Digest> = Vec::new();
        for r in 0..rounds {
            let mut this = Vec::new();
            for id in committee.ids() {
                let kp = committee.keypair(id);
                let v = Vertex::new(Round(r), id, Block::empty(), prev.clone(), &kp);
                this.push(v.digest());
                out.push(Arc::new(v));
            }
            prev = this;
        }
        out
    }

    #[test]
    fn replay_commits_like_a_validator_and_records_every_layer() {
        let committee = Committee::new_equal_stake(4);
        let config = ValidatorConfig {
            schedule: ScheduleConfig::Hammerhead(HammerheadConfig {
                period_rounds: 4,
                ..HammerheadConfig::default()
            }),
            ..ValidatorConfig::default()
        };
        let mut tr = Tracer::new();
        let backend = MemBackend::new();
        let mut replay =
            LayerReplay::new(&committee, ValidatorId(0), &config, backend.clone(), &tr)
                .expect("hammerhead, best effort");
        let vertices = full_dag(&committee, 20);
        for v in &vertices {
            replay.feed(&mut tr, v).expect("replay");
        }
        replay.sync(&mut tr).expect("sync");
        let c = replay.counts();
        assert_eq!(c.vertices, 80);
        assert_eq!(c.delivered, 80);
        assert_eq!(c.parents, 19 * 4 * 4);
        assert!(c.commits >= 8, "commits: {}", c.commits);
        assert!(replay.epochs() >= 1);
        assert_eq!(skipped_anchor_share(replay.committed_anchors()), 0.0);

        // The WAL written by the replay restarts a real validator onto the
        // same commit sequence.
        let recovered = recover(&mut tr, &committee, ValidatorId(0), &config, backend);
        assert_eq!(recovered.committed_anchors(), replay.committed_anchors());

        let totals = tr.totals();
        for name in [
            "codec.encode",
            "codec.decode",
            "crypto.crc",
            "crypto.digest",
            "crypto.verify",
            "rbc.handle",
            "dag.insert",
            "storage.append",
            "consensus.process_vertex",
            "policy.before_order",
            "policy.on_vertex_ordered",
            "dag.causal_sub_dag",
            "storage.sync",
            "storage.recover",
        ] {
            assert!(totals.get(name).is_some_and(|t| t.calls > 0), "no spans for {name}");
        }
        assert_eq!(totals["crypto.verify"].calls, 80);
        assert_eq!(totals["dag.causal_sub_dag"].calls, c.commits);
    }

    #[test]
    fn skipped_share_counts_even_rounds_without_an_anchor() {
        let at = |r| VertexRef {
            round: Round(r),
            author: ValidatorId(0),
            digest: hh_crypto::Digest::ZERO,
        };
        assert_eq!(skipped_anchor_share(&[]), 0.0);
        // Rounds 2..=10 hold five even rounds; three anchors committed.
        assert_eq!(skipped_anchor_share(&[at(2), at(6), at(10)]), 0.4);
    }
}

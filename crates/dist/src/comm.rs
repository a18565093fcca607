//! Simulated message passing: an MPI-like communicator over OS threads.
//!
//! Substitution (DESIGN.md §4): the paper's MPI runs on Piz Daint/Summit.
//! Communication *volume* is hardware-independent, so a rank-per-thread
//! world with per-edge byte accounting reproduces the paper's volume
//! measurements (Tables 4–5) exactly, and lets the distributed SSE schemes
//! run for real at reduced scale.
//!
//! Messages are `Vec<Complex64>` payloads tagged with a `u64`; each ordered
//! pair of ranks has its own FIFO channel, so point-to-point ordering is
//! MPI-like. Sends are non-blocking (unbounded channels); receives block.
//!
//! There is one wire path: every frame is delivered on its only wire
//! attempt, so the byte-accounting model is exact. The channel is
//! in-process and cannot lose, flip or delay a frame, so there is no
//! retransmit protocol; the one fault modeled is a rank dying, scheduled
//! by a [`crate::fault::FaultPlan`] on an elastic world.
//!
//! ## Liveness and elasticity
//!
//! The classic API (`send`/`recv`/`barrier`) assumes every rank outlives
//! the exchange — a permanently dead rank hangs its peers. The elastic API
//! (`try_send`/`try_recv`/`try_barrier`) adds a failure detector: every
//! rank owns a monotone *epoch* counter (bumped on each elastic send,
//! receive poll, and explicit [`ThreadComm::heartbeat`]); a receiver whose
//! channel stays silent checks the sender's epoch and, once it has not
//! moved for [`LivenessConfig::deadline`], files a death certificate and
//! returns a typed [`CommError::RankDeath`] instead of blocking forever.
//! Death certificates are shared world state, so one detection aborts
//! every waiting survivor — the supervision loop in `runner.rs` then
//! re-tiles over the survivors and retries. Worlds built by
//! [`ThreadComm::elastic_world`] carry an *identity* map so a shrunken
//! survivor world keeps reporting the original (pre-shrink) rank ids.

use crossbeam::channel::{unbounded, Receiver, Sender};
use qt_linalg::Complex64;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::fault::FaultPlan;
use qt_telemetry::counters::{self, Counter};
use qt_telemetry::recorder;

/// Typed failure of an elastic communication primitive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// A peer went silent past the liveness deadline (or its endpoint
    /// vanished). `rank` is the *original* identity of the dead peer,
    /// `epoch` the last liveness epoch observed from it.
    RankDeath { rank: usize, epoch: u64 },
    /// This rank was killed by the fault plan's `kill_at` schedule; it
    /// must fall silent and unwind without transmitting anything else.
    Killed { rank: usize },
}

impl CommError {
    /// The original rank id this error implicates as dead.
    pub fn suspect(&self) -> usize {
        match self {
            CommError::RankDeath { rank, .. } => *rank,
            CommError::Killed { rank } => *rank,
        }
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RankDeath { rank, epoch } => {
                write!(f, "rank {rank} declared dead (last epoch {epoch})")
            }
            CommError::Killed { rank } => write!(f, "rank {rank} killed by fault schedule"),
        }
    }
}

impl std::error::Error for CommError {}

/// Failure-detector tuning for the elastic primitives.
#[derive(Clone, Copy, Debug)]
pub struct LivenessConfig {
    /// How often a blocked receiver re-polls its channel (and re-checks
    /// peer epochs). Each poll also bumps the poller's own epoch, so a
    /// rank that is merely *waiting* never looks dead.
    pub poll: Duration,
    /// How long a peer's epoch may stand still before it is declared
    /// dead. Must comfortably exceed the longest heartbeat-free compute
    /// stretch of the scheme.
    pub deadline: Duration,
}

impl Default for LivenessConfig {
    fn default() -> Self {
        LivenessConfig {
            poll: Duration::from_millis(1),
            deadline: Duration::from_millis(500),
        }
    }
}

/// Bytes per payload element.
pub const ELEM_BYTES: u64 = 16;

/// One frame on the wire: `(tag, data, sent_at)` — `sent_at` is the send
/// time of a remote frame while tracing is on, which the receiver stamps
/// on the start of the frame's send→recv flow arc.
type Frame = (u64, Vec<Complex64>, Option<Instant>);

/// Monotone world id: every world instance (including each survivor world
/// built during elastic recovery) salts its trace flow ids with a fresh
/// value, so send→recv arcs from different worlds never collide in one
/// Chrome trace.
static WORLD_SALT: AtomicU64 = AtomicU64::new(1);

struct WorldInner {
    n: usize,
    /// This world's flow-id salt (see [`WORLD_SALT`]).
    salt: u64,
    /// `senders[dst][src]` sends into `receivers`' matching channel.
    senders: Vec<Vec<Sender<Frame>>>,
    /// Bytes sent per rank.
    sent: Vec<AtomicU64>,
    /// Bytes received per rank.
    received: Vec<AtomicU64>,
    barrier: Barrier,
    /// Liveness epoch per world slot: monotone counter bumped by elastic
    /// sends, receive polls, and explicit heartbeats.
    epochs: Vec<AtomicU64>,
    /// Death certificates per world slot; shared so one detection aborts
    /// every waiting survivor.
    dead: Vec<AtomicBool>,
    /// Arrival generations for the liveness-aware [`ThreadComm::try_barrier`].
    arrivals: Vec<AtomicU64>,
    /// Original (pre-shrink) rank identity per world slot; `identity[i]
    /// == i` for worlds that never lost a rank.
    identity: Vec<usize>,
}

/// One rank's endpoint.
pub struct ThreadComm {
    rank: usize,
    world: Arc<WorldInner>,
    /// `receivers[src]` yields messages sent by `src` to this rank.
    receivers: Vec<Receiver<Frame>>,
    /// Generation of the last `try_barrier` this rank entered.
    barrier_gen: Cell<u64>,
    /// Per-source ordinal of the next inbound frame; it keys the frame's
    /// send→recv trace flow arc. Single-threaded per rank.
    flow_in: RefCell<Vec<u64>>,
    /// Outbound ordinal at which this rank's process dies (from the
    /// plan's `kill_at` schedule, matched by original identity).
    kill_at: Option<u64>,
    /// Total elastic sends attempted so far (the kill ordinal clock).
    total_sends: Cell<u64>,
    /// Set once the kill fired: the rank transmits nothing ever again.
    killed: Cell<bool>,
}

impl ThreadComm {
    /// Create a world of `n` ranks; returns one endpoint per rank.
    pub fn world(n: usize) -> Vec<ThreadComm> {
        Self::elastic_world((0..n).collect(), None)
    }

    /// Create a survivor world: slot `i` carries the original rank id
    /// `identity[i]`, so death reports and the `plan`'s kill schedule keep
    /// referring to pre-shrink identities across recovery attempts.
    pub fn elastic_world(identity: Vec<usize>, plan: Option<FaultPlan>) -> Vec<ThreadComm> {
        let n = identity.len();
        assert!(n > 0);
        let mut senders = vec![Vec::with_capacity(n); n];
        let mut receivers: Vec<Vec<Receiver<Frame>>> = (0..n).map(|_| Vec::new()).collect();
        for dst in 0..n {
            for _src in 0..n {
                let (tx, rx) = unbounded();
                senders[dst].push(tx);
                receivers[dst].push(rx);
            }
        }
        let inner = Arc::new(WorldInner {
            n,
            salt: WORLD_SALT.fetch_add(1, Ordering::Relaxed),
            senders,
            sent: (0..n).map(|_| AtomicU64::new(0)).collect(),
            received: (0..n).map(|_| AtomicU64::new(0)).collect(),
            barrier: Barrier::new(n),
            epochs: (0..n).map(|_| AtomicU64::new(0)).collect(),
            dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
            arrivals: (0..n).map(|_| AtomicU64::new(0)).collect(),
            identity,
        });
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rxs)| ThreadComm {
                rank,
                world: inner.clone(),
                receivers: rxs,
                barrier_gen: Cell::new(0),
                flow_in: RefCell::new(vec![0; n]),
                kill_at: plan.as_ref().and_then(|p| p.kill_for(inner.identity[rank])),
                total_sends: Cell::new(0),
                killed: Cell::new(false),
            })
            .collect()
    }

    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    pub fn size(&self) -> usize {
        self.world.n
    }

    /// Original (pre-shrink) identity of this rank slot.
    #[inline]
    pub fn identity(&self) -> usize {
        self.world.identity[self.rank]
    }

    /// Original identity of world slot `slot`.
    #[inline]
    pub fn identity_of(&self, slot: usize) -> usize {
        self.world.identity[slot]
    }

    /// Announce liveness: bump this rank's epoch. Call from long
    /// heartbeat-free compute stretches so waiting peers never mistake
    /// computation for death.
    #[inline]
    pub fn heartbeat(&self) {
        self.world.epochs[self.rank].fetch_add(1, Ordering::Release);
    }

    /// Last observed liveness epoch of world slot `slot`.
    #[inline]
    pub fn epoch_of(&self, slot: usize) -> u64 {
        self.world.epochs[slot].load(Ordering::Acquire)
    }

    /// File a death certificate for world slot `slot`.
    pub(crate) fn declare_dead(&self, slot: usize) {
        self.world.dead[slot].store(true, Ordering::Release);
    }

    /// First slot other than `me` with a death certificate on file.
    pub(crate) fn first_dead_excluding(&self, me: usize) -> Option<usize> {
        (0..self.world.n).find(|&s| s != me && self.world.dead[s].load(Ordering::Acquire))
    }

    /// Account an inbound frame from `src` and record its send→recv trace
    /// flow arc as one record: the start on `src`'s track at the frame's
    /// send time, the finish on this rank's track now. Only a received
    /// frame draws an arc, so a frame that was sent toward a rank that died
    /// before reading it leaves none.
    fn note_recv(&self, src: usize, tag: u64, sent_at: Option<Instant>) {
        let seq = {
            let mut s = self.flow_in.borrow_mut();
            let v = s[src];
            s[src] += 1;
            v
        };
        if let Some(at) = sent_at {
            let id = qt_telemetry::trace::flow_id(&[
                self.world.salt,
                src as u64,
                self.rank as u64,
                tag,
                seq,
            ]);
            let (from, to) = (self.identity_of(src), self.identity());
            qt_telemetry::trace::record_flow("comm/msg", from, to, id, at);
        }
    }

    /// Single accounting point for network traffic: `bytes` left this
    /// rank's NIC and arrived at `dst`. Phase spans and the telemetry
    /// report read the same byte stream the per-rank counters feed.
    fn account_wire(&self, dst: usize, bytes: u64) {
        self.world.sent[self.rank].fetch_add(bytes, Ordering::Relaxed);
        self.world.received[dst].fetch_add(bytes, Ordering::Relaxed);
        counters::add(Counter::Bytes, bytes);
    }

    /// One failed liveness probe of world slot `watched`: counted and
    /// journalled as a heartbeat timeout.
    fn probe_failed(&self, watched: usize) {
        counters::add(Counter::ElasticHeartbeatTimeouts, 1);
        qt_telemetry::journal::emit(qt_telemetry::EventKind::HeartbeatTimeout {
            watched: self.identity_of(watched) as u64,
        });
    }

    /// Hand `frame` to `dst`'s channel. The destination's receivers are
    /// dropped when its closure unwinds, so a closed channel is death
    /// evidence: a probe of `dst` that failed at once, recorded like an
    /// expired poll.
    fn push(&self, dst: usize, frame: Frame) -> Result<(), CommError> {
        self.world.senders[dst][self.rank].send(frame).map_err(|_| {
            self.probe_failed(dst);
            self.declare_dead(dst);
            CommError::RankDeath {
                rank: self.identity_of(dst),
                epoch: self.epoch_of(dst),
            }
        })
    }

    /// The one wire path under [`ThreadComm::send`] and
    /// [`ThreadComm::try_send`]. Self-sends never cross the network: no
    /// bytes, no flow arc. While tracing, a remote frame has its send time
    /// stamped before the channel push, so the receiver's flow finish can
    /// never carry an earlier timestamp; its bytes are accounted once the
    /// push succeeded, so a frame refused by a dead rank's closed endpoint
    /// moves none. That destination surfaces [`CommError::RankDeath`].
    fn transmit(&self, dst: usize, tag: u64, data: Vec<Complex64>) -> Result<(), CommError> {
        if dst == self.rank {
            return self.push(dst, (tag, data, None));
        }
        let bytes = data.len() as u64 * ELEM_BYTES;
        let sent_at = recorder::is_on(recorder::TRACE).then(Instant::now);
        self.push(dst, (tag, data, sent_at))?;
        self.account_wire(dst, bytes);
        Ok(())
    }

    /// Point-to-point send (non-blocking). Self-sends are allowed and do
    /// not count toward network bytes. The static schemes have no
    /// recovery story, so a vanished peer escalates to a panic.
    pub fn send(&self, dst: usize, tag: u64, data: Vec<Complex64>) {
        if let Err(e) = self.transmit(dst, tag, data) {
            panic!("{e}");
        }
    }

    /// Elastic point-to-point send. Like [`ThreadComm::send`], but a
    /// destination whose endpoint has vanished yields a typed
    /// [`CommError::RankDeath`] instead of a panic, the plan's `kill_at`
    /// schedule can terminate *this* rank ([`CommError::Killed`]).
    pub fn try_send(&self, dst: usize, tag: u64, data: Vec<Complex64>) -> Result<(), CommError> {
        if !self.killed.get()
            && self
                .kill_at
                .is_some_and(|kill| self.total_sends.get() >= kill)
        {
            // The process dies *before* this frame leaves the NIC: file
            // its own death certificate (the closing TCP connection a
            // real peer would observe) and fall silent for the rest of
            // the world run.
            self.killed.set(true);
            self.declare_dead(self.rank);
        }
        if self.killed.get() {
            return Err(CommError::Killed {
                rank: self.identity(),
            });
        }
        self.total_sends.set(self.total_sends.get() + 1);
        self.heartbeat();
        self.transmit(dst, tag, data)
    }

    /// The one accept path under [`ThreadComm::recv`] and
    /// [`ThreadComm::try_recv`]: asserts the tag (protocols here are
    /// deterministic), closes a remote frame's send→recv flow arc and
    /// yields the payload.
    fn accept(&self, src: usize, tag: u64, frame: Frame) -> Vec<Complex64> {
        let (got_tag, data, sent_at) = frame;
        assert_eq!(
            got_tag, tag,
            "rank {} expected tag {tag} from {src}, got {got_tag}",
            self.rank
        );
        if src != self.rank {
            self.note_recv(src, tag, sent_at);
        }
        data
    }

    /// Blocking receive of the next message from `src`; asserts the tag
    /// matches. A frame is never lost, so the wait is unbounded.
    pub fn recv(&self, src: usize, tag: u64) -> Vec<Complex64> {
        let frame = self.receivers[src].recv().expect("sender alive");
        self.accept(src, tag, frame)
    }

    /// Elastic blocking receive with a failure detector. Polls the
    /// channel every `live.poll`; while silent it watches `src`'s
    /// liveness epoch and the world's death certificates. Once `src`'s
    /// epoch has not moved for `live.deadline` the peer is declared dead
    /// and the call returns [`CommError::RankDeath`]; an already-filed
    /// certificate (for any rank) aborts immediately so one detection
    /// cascades to every waiting survivor.
    pub fn try_recv(
        &self,
        src: usize,
        tag: u64,
        live: &LivenessConfig,
    ) -> Result<Vec<Complex64>, CommError> {
        use crossbeam::channel::RecvTimeoutError;
        let mut last_epoch = self.epoch_of(src);
        let mut last_progress = Instant::now();
        loop {
            match self.receivers[src].recv_timeout(live.poll) {
                Ok(frame) => return Ok(self.accept(src, tag, frame)),
                Err(RecvTimeoutError::Timeout) => {
                    self.probe_failed(src);
                    // Waiting is progress: keep our own epoch moving so
                    // peers blocked on *us* don't declare us dead.
                    self.heartbeat();
                    if let Some(s) = self.first_dead_excluding(self.rank) {
                        return Err(CommError::RankDeath {
                            rank: self.identity_of(s),
                            epoch: self.epoch_of(s),
                        });
                    }
                    let e = self.epoch_of(src);
                    if e != last_epoch {
                        last_epoch = e;
                        last_progress = Instant::now();
                    } else if last_progress.elapsed() >= live.deadline {
                        self.declare_dead(src);
                        return Err(CommError::RankDeath {
                            rank: self.identity_of(src),
                            epoch: e,
                        });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Unreachable today (all Sender clones live in the
                    // shared world), but a vanished channel is death
                    // evidence all the same.
                    self.declare_dead(src);
                    return Err(CommError::RankDeath {
                        rank: self.identity_of(src),
                        epoch: self.epoch_of(src),
                    });
                }
            }
        }
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        self.world.barrier.wait();
    }

    /// Liveness-aware barrier. A dead rank never reaches a
    /// [`ThreadComm::barrier`], which would hang every survivor; this
    /// variant records per-rank arrival generations and runs the same
    /// detector as [`ThreadComm::try_recv`] while waiting: each poll that
    /// expires with a peer missing records one heartbeat timeout, and only
    /// then are the death certificates and the epoch deadlines checked.
    /// So a death surfaces as [`CommError::RankDeath`] on every survivor,
    /// and every path that detects one (receive poll, barrier poll, closed
    /// endpoint) journals a timeout first.
    pub fn try_barrier(&self, live: &LivenessConfig) -> Result<(), CommError> {
        let gen = self.barrier_gen.get() + 1;
        self.barrier_gen.set(gen);
        self.world.arrivals[self.rank].store(gen, Ordering::Release);
        let n = self.world.n;
        let arrived = |s: usize| self.world.arrivals[s].load(Ordering::Acquire) >= gen;
        let mut last: Vec<(u64, Instant)> =
            (0..n).map(|s| (self.epoch_of(s), Instant::now())).collect();
        loop {
            if (0..n).all(arrived) {
                return Ok(());
            }
            std::thread::sleep(live.poll);
            self.heartbeat();
            let Some(late) = (0..n).find(|&s| !arrived(s)) else {
                continue;
            };
            self.probe_failed(late);
            if let Some(s) = self.first_dead_excluding(self.rank) {
                return Err(CommError::RankDeath {
                    rank: self.identity_of(s),
                    epoch: self.epoch_of(s),
                });
            }
            for (s, entry) in last.iter_mut().enumerate() {
                if arrived(s) {
                    continue;
                }
                let e = self.epoch_of(s);
                if e != entry.0 {
                    *entry = (e, Instant::now());
                } else if entry.1.elapsed() >= live.deadline {
                    self.declare_dead(s);
                    return Err(CommError::RankDeath {
                        rank: self.identity_of(s),
                        epoch: e,
                    });
                }
            }
        }
    }

    /// Broadcast from `root`: returns the payload on every rank.
    pub fn bcast(&self, root: usize, data: Option<Vec<Complex64>>, tag: u64) -> Vec<Complex64> {
        if self.rank == root {
            let data = data.expect("root must provide data");
            for dst in 0..self.size() {
                if dst != root {
                    self.send(dst, tag, data.clone());
                }
            }
            data
        } else {
            self.recv(root, tag)
        }
    }

    /// All-to-all with variable counts: `sendbufs[dst]` goes to `dst`;
    /// returns `recvbufs[src]`.
    pub fn alltoallv(&self, sendbufs: Vec<Vec<Complex64>>, tag: u64) -> Vec<Vec<Complex64>> {
        assert_eq!(sendbufs.len(), self.size());
        for (dst, buf) in sendbufs.into_iter().enumerate() {
            self.send(dst, tag, buf);
        }
        (0..self.size()).map(|src| self.recv(src, tag)).collect()
    }

    /// Element-wise sum-reduction to `root`; returns `Some(total)` on root.
    pub fn reduce_sum(
        &self,
        root: usize,
        mut data: Vec<Complex64>,
        tag: u64,
    ) -> Option<Vec<Complex64>> {
        if self.rank == root {
            for src in 0..self.size() {
                if src == root {
                    continue;
                }
                let part = self.recv(src, tag);
                assert_eq!(part.len(), data.len());
                for (d, p) in data.iter_mut().zip(part) {
                    *d += p;
                }
            }
            Some(data)
        } else {
            self.send(root, tag, data);
            None
        }
    }

    /// Element-wise sum-reduction, result on every rank.
    pub fn allreduce_sum(&self, data: Vec<Complex64>, tag: u64) -> Vec<Complex64> {
        let n = data.len();
        match self.reduce_sum(0, data, tag) {
            Some(total) => self.bcast(0, Some(total), tag.wrapping_add(1)),
            None => {
                let out = self.bcast(0, None, tag.wrapping_add(1));
                assert_eq!(out.len(), n);
                out
            }
        }
    }

    /// Total bytes this rank has sent so far.
    pub fn bytes_sent(&self) -> u64 {
        self.world.sent[self.rank].load(Ordering::Relaxed)
    }

    /// Total bytes this rank has received so far.
    pub fn bytes_received(&self) -> u64 {
        self.world.received[self.rank].load(Ordering::Relaxed)
    }

    /// Total bytes moved across the whole world (sum of sends).
    pub fn world_bytes(&self) -> u64 {
        self.world
            .sent
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum()
    }
}

/// Run `f` on `n` ranks (one OS thread each) and collect the results in
/// rank order.
pub fn run_world<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(ThreadComm) -> T + Sync,
{
    run_comms(ThreadComm::world(n), f)
}

/// Run a fallible closure on a survivor world (slot `i` has original
/// identity `identity[i]`) and collect each rank's outcome — typed
/// errors, not panics, so the supervision loop can inspect deaths. With a
/// `plan`, its kill schedule (matched by original identity) applies.
pub fn run_elastic_world<T, F>(
    identity: Vec<usize>,
    plan: Option<FaultPlan>,
    f: F,
) -> Vec<Result<T, CommError>>
where
    T: Send,
    F: Fn(ThreadComm) -> Result<T, CommError> + Sync,
{
    run_comms(ThreadComm::elastic_world(identity, plan), f)
}

fn run_comms<T, F>(comms: Vec<ThreadComm>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(ThreadComm) -> T + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                scope.spawn(|| {
                    // A rank is a top-level compute thread: it takes its
                    // core out of the `par` budget for as long as it lives.
                    let _lane = qt_linalg::par::lane();
                    // Journal attribution: every event this rank thread
                    // emits carries its original (pre-shrink) identity.
                    recorder::set_rank(comm.identity() as i64);
                    let out = f(comm);
                    recorder::set_rank(-1);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_linalg::c64;

    #[test]
    fn point_to_point_roundtrip() {
        let out = run_world(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![c64(1.0, 2.0), c64(3.0, 4.0)]);
                0.0
            } else {
                let data = comm.recv(0, 7);
                data[1].re
            }
        });
        assert_eq!(out[1], 3.0);
    }

    #[test]
    fn byte_accounting() {
        let out = run_world(3, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![Complex64::ZERO; 10]);
                comm.send(2, 0, vec![Complex64::ZERO; 5]);
            } else {
                comm.recv(0, 0);
            }
            comm.barrier();
            (comm.bytes_sent(), comm.bytes_received(), comm.world_bytes())
        });
        assert_eq!(out[0].0, 15 * 16);
        assert_eq!(out[1].1, 10 * 16);
        assert_eq!(out[2].1, 5 * 16);
        assert!(out.iter().all(|&(_, _, w)| w == 15 * 16));
    }

    /// Every public send/receive flavour rides the one wire path: on a
    /// plan-less world the elastic primitives account the same bytes and
    /// keep the same per-pair order as `send`/`recv` (what
    /// `byte_accounting` and `ordered_delivery_per_pair` pin). A plan only
    /// kills: a world carrying one whose kill never fires moves the same
    /// bytes in the same order.
    #[test]
    fn every_flavour_moves_the_same_bytes_in_the_same_order() {
        type SendFn = fn(&ThreadComm, usize, u64, Vec<Complex64>);
        type RecvFn = fn(&ThreadComm, usize, u64) -> Vec<Complex64>;
        let sends: [SendFn; 2] = [
            |c, dst, tag, data| c.send(dst, tag, data),
            |c, dst, tag, data| c.try_send(dst, tag, data).unwrap(),
        ];
        let recvs: [RecvFn; 2] = [
            |c, src, tag| c.recv(src, tag),
            |c, src, tag| c.try_recv(src, tag, &LivenessConfig::default()).unwrap(),
        ];
        // Rank 0 makes 51 sends (ordinals 0..=50), so a kill at 51 never fires.
        let unfired_kill = FaultPlan::default().with_kill_at(0, 51);
        for send in sends {
            for recv in recvs {
                let body = |comm: ThreadComm| {
                    let mut in_order = true;
                    if comm.rank() == 0 {
                        send(&comm, 1, 0, vec![Complex64::ZERO; 10]);
                        send(&comm, 2, 0, vec![Complex64::ZERO; 5]);
                        for i in 1..50u64 {
                            send(&comm, 1, i, vec![c64(i as f64, 0.0)]);
                        }
                    } else {
                        recv(&comm, 0, 0);
                    }
                    if comm.rank() == 1 {
                        in_order = (1..50u64).all(|i| recv(&comm, 0, i)[0].re == i as f64);
                    }
                    comm.barrier();
                    (
                        comm.bytes_sent(),
                        comm.bytes_received(),
                        comm.world_bytes(),
                        in_order,
                    )
                };
                let planned =
                    run_elastic_world(vec![0, 1, 2], Some(unfired_kill.clone()), |c| Ok(body(c)));
                let planned: Vec<_> = planned.into_iter().map(Result::unwrap).collect();
                for out in [run_world(3, body), planned] {
                    assert_eq!(out[0], ((15 + 49) * 16, 0, (15 + 49) * 16, true));
                    assert_eq!(out[1], (0, (10 + 49) * 16, (15 + 49) * 16, true));
                    assert_eq!(out[2], (0, 5 * 16, (15 + 49) * 16, true));
                }
            }
        }
    }

    #[test]
    fn self_send_is_free() {
        let out = run_world(1, |comm| {
            comm.send(0, 3, vec![Complex64::ZERO; 100]);
            let d = comm.recv(0, 3);
            (d.len(), comm.world_bytes())
        });
        assert_eq!(out[0], (100, 0));
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let out = run_world(4, |comm| {
            let data = if comm.rank() == 2 {
                Some(vec![c64(9.0, 0.0); 8])
            } else {
                None
            };
            let got = comm.bcast(2, data, 11);
            got[0].re
        });
        assert!(out.iter().all(|&v| v == 9.0));
    }

    #[test]
    fn alltoallv_exchanges_rank_stamped_buffers() {
        let out = run_world(3, |comm| {
            let sendbufs: Vec<Vec<Complex64>> = (0..3)
                .map(|dst| vec![c64(comm.rank() as f64, dst as f64); comm.rank() + 1])
                .collect();
            let recv = comm.alltoallv(sendbufs, 21);
            // recv[src] came from src, stamped (src, my_rank), len src+1.
            (0..3).all(|src| {
                recv[src].len() == src + 1 && recv[src][0] == c64(src as f64, comm.rank() as f64)
            })
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn reductions_sum() {
        let out = run_world(4, |comm| {
            let data = vec![c64(1.0, comm.rank() as f64); 2];
            let total = comm.allreduce_sum(data, 31);
            total[0]
        });
        for v in out {
            assert_eq!(v, c64(4.0, 6.0)); // 1+1+1+1, 0+1+2+3
        }
    }

    #[test]
    fn ring_pipeline() {
        // Each rank forwards an accumulating token around the ring twice —
        // exercises interleaved send/recv across many ranks.
        let n = 8;
        let out = run_world(n, |comm| {
            let rank = comm.rank();
            let next = (rank + 1) % n;
            let prev = (rank + n - 1) % n;
            let mut value = 0.0;
            for lap in 0..2u64 {
                if rank == 0 {
                    comm.send(next, lap, vec![c64(value + 1.0, 0.0)]);
                    value = comm.recv(prev, lap)[0].re;
                } else {
                    let got = comm.recv(prev, lap)[0].re;
                    value = got;
                    comm.send(next, lap, vec![c64(got + 1.0, 0.0)]);
                }
            }
            value
        });
        // After two laps the token has been incremented 2n times; rank 0
        // sees the full count.
        assert_eq!(out[0], (2 * n) as f64);
    }

    #[test]
    fn world_of_one_runs_collectives() {
        let out = run_world(1, |comm| {
            let b = comm.bcast(0, Some(vec![c64(5.0, 0.0)]), 1);
            let r = comm.allreduce_sum(vec![c64(2.0, 0.0)], 2);
            let a = comm.alltoallv(vec![vec![c64(3.0, 0.0)]], 3);
            comm.barrier();
            b[0].re + r[0].re + a[0][0].re
        });
        assert_eq!(out[0], 10.0);
        // No network bytes for a single rank.
    }

    #[test]
    fn elastic_world_roundtrip_keeps_identities() {
        // A 2-slot survivor world standing in for original ranks {0, 2}.
        let live = LivenessConfig::default();
        let out = run_elastic_world(vec![0, 2], None, move |comm| {
            assert_eq!(comm.identity_of(1), 2);
            if comm.rank() == 0 {
                comm.try_send(1, 4, vec![c64(8.0, 0.0)])?;
                comm.try_barrier(&live)?;
                Ok(comm.identity())
            } else {
                let d = comm.try_recv(0, 4, &live)?;
                comm.try_barrier(&live)?;
                Ok(d[0].re as usize + comm.identity())
            }
        });
        assert_eq!(out[0], Ok(0));
        assert_eq!(out[1], Ok(10)); // 8.0 payload + identity 2
    }

    #[test]
    fn silent_peer_is_declared_dead_by_deadline() {
        let live = LivenessConfig {
            poll: Duration::from_millis(1),
            deadline: Duration::from_millis(30),
        };
        let out = run_elastic_world(vec![0, 1], None, move |comm| {
            if comm.rank() == 0 {
                // Rank 1 never sends and never heartbeats: the detector
                // must convert the silence into a typed death.
                comm.try_recv(1, 9, &live).map(|_| ())
            } else {
                std::thread::sleep(Duration::from_millis(120));
                Ok(())
            }
        });
        assert_eq!(
            out[0],
            Err(CommError::RankDeath { rank: 1, epoch: 0 }),
            "silence past the deadline must surface as RankDeath"
        );
        assert_eq!(out[1], Ok(()));
    }

    #[test]
    fn death_certificate_cascades_through_try_barrier() {
        // Rank 2 dies silently; rank 0 detects it in try_recv, and the
        // shared certificate aborts rank 1's barrier wait too. Each
        // survivor records a heartbeat timeout before it returns.
        let live = LivenessConfig {
            poll: Duration::from_millis(1),
            deadline: Duration::from_millis(30),
        };
        let out = run_elastic_world(vec![0, 1, 2], None, move |comm| {
            let before = counters::local(Counter::ElasticHeartbeatTimeouts);
            let res = match comm.rank() {
                0 => comm.try_recv(2, 5, &live).map(|_| ()),
                1 => comm.try_barrier(&live),
                _ => {
                    std::thread::sleep(Duration::from_millis(150));
                    Ok(())
                }
            };
            Ok((
                res,
                counters::local(Counter::ElasticHeartbeatTimeouts) - before,
            ))
        });
        for (rank, o) in out.iter().take(2).enumerate() {
            let (res, timeouts) = o.as_ref().unwrap();
            assert_eq!(res.as_ref().unwrap_err().suspect(), 2, "rank {rank}");
            assert!(*timeouts >= 1, "rank {rank} detected a death silently");
        }
    }

    #[test]
    fn a_send_into_a_closed_endpoint_records_a_timeout() {
        // Rank 1's endpoint is gone before rank 0 sends to it.
        let gone = std::sync::Barrier::new(2);
        let out = run_elastic_world(vec![0, 1], None, |comm| {
            if comm.rank() == 1 {
                drop(comm);
                gone.wait();
                return Ok((Ok(()), 0));
            }
            gone.wait();
            let before = counters::local(Counter::ElasticHeartbeatTimeouts);
            let res = comm.try_send(1, 3, vec![c64(1.0, 0.0)]);
            Ok((
                res,
                counters::local(Counter::ElasticHeartbeatTimeouts) - before,
            ))
        });
        let (res, timeouts) = out[0].as_ref().unwrap();
        assert_eq!(res.as_ref().unwrap_err().suspect(), 1);
        assert_eq!(*timeouts, 1);
    }

    #[test]
    fn heartbeats_keep_a_computing_rank_alive() {
        let live = LivenessConfig {
            poll: Duration::from_millis(1),
            deadline: Duration::from_millis(40),
        };
        let out = run_elastic_world(vec![0, 1], None, move |comm| {
            if comm.rank() == 0 {
                comm.try_recv(1, 3, &live).map(|d| d[0].re)
            } else {
                // "Compute" well past the deadline, but heartbeat while
                // doing so — the peer must keep waiting.
                for _ in 0..10 {
                    std::thread::sleep(Duration::from_millis(10));
                    comm.heartbeat();
                }
                comm.try_send(0, 3, vec![c64(7.0, 0.0)])?;
                Ok(0.0)
            }
        });
        assert_eq!(out[0], Ok(7.0));
    }

    #[test]
    fn ordered_delivery_per_pair() {
        let out = run_world(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..50u64 {
                    comm.send(1, i, vec![c64(i as f64, 0.0)]);
                }
                true
            } else {
                (0..50u64).all(|i| comm.recv(0, i)[0].re == i as f64)
            }
        });
        assert!(out[1]);
    }
}

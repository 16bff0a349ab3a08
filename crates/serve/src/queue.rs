//! Deadline-aware admission queue with per-class priority lanes.
//!
//! Three lanes — one per [`QosClass`], visited in priority order
//! (URLLC → eMBB → mMTC). Within a lane, requests are ordered
//! earliest-deadline-first with arrival order as the tie-break, and lane
//! depth is bounded: a full lane **rejects** at enqueue (backpressure)
//! instead of buffering without limit, and a request whose deadline has
//! passed is **expired** explicitly — enqueue, [`AdmissionQueue::sweep_expired`],
//! and batch formation together account for every admitted request
//! exactly once.
//!
//! The queue is a plain data structure: all methods take the current
//! [`Instant`] as an argument, so edge cases (zero capacity, pre-expired
//! deadlines, whole-lane simultaneous expiry) are unit-testable with
//! synthetic clocks and no threads.

use rcr_qos::QosClass;
use std::time::{Duration, Instant};

/// Per-lane admission and batching policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LanePolicy {
    /// Maximum queued requests; enqueue into a full lane is rejected.
    pub capacity: usize,
    /// Largest batch drained at once. Must be at least 1 — a zero would
    /// make the lane undrainable, so [`QueuePolicy::validate`] rejects it
    /// at construction instead of silently clamping.
    pub max_batch: usize,
    /// Oldest age a queued request may reach before the lane fires a
    /// partial batch. `ZERO` fires immediately on any queued request.
    pub max_age: Duration,
}

/// Intra-lane ordering discipline.
///
/// [`QueueDiscipline::Edf`] is the production default; `Fifo` exists as
/// the experimental control the scenario harness compares it against
/// ("EDF beats FIFO at high utilization" is a *measured* claim, so the
/// strawman has to be runnable, not hypothetical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// Earliest-deadline-first, arrival order as the tie-break.
    #[default]
    Edf,
    /// Pure arrival order, deadlines ignored for ordering (they still
    /// expire entries).
    Fifo,
}

/// Policy for all three lanes.
///
/// Defaults encode the classes' semantics: URLLC never waits (batch of
/// 1, fired immediately), eMBB coalesces briefly for throughput, mMTC
/// coalesces the longest and queues the deepest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuePolicy {
    /// URLLC lane.
    pub urllc: LanePolicy,
    /// eMBB lane.
    pub embb: LanePolicy,
    /// mMTC lane.
    pub mmtc: LanePolicy,
    /// Ordering within every lane (EDF unless experimenting).
    pub discipline: QueueDiscipline,
}

impl Default for QueuePolicy {
    fn default() -> Self {
        QueuePolicy {
            urllc: LanePolicy {
                capacity: 256,
                max_batch: 1,
                max_age: Duration::ZERO,
            },
            embb: LanePolicy {
                capacity: 512,
                max_batch: 16,
                max_age: Duration::from_micros(500),
            },
            mmtc: LanePolicy {
                capacity: 1024,
                max_batch: 32,
                max_age: Duration::from_millis(2),
            },
            discipline: QueueDiscipline::Edf,
        }
    }
}

impl QueuePolicy {
    /// The policy of `class`'s lane.
    pub fn lane(&self, class: QosClass) -> &LanePolicy {
        match class {
            QosClass::Urllc => &self.urllc,
            QosClass::Embb => &self.embb,
            QosClass::Mmtc => &self.mmtc,
        }
    }

    /// Checks the policy's invariants: every lane's `max_batch` must be at
    /// least 1 (a zero-batch lane could never drain).
    ///
    /// # Errors
    /// [`PolicyError::ZeroMaxBatch`] naming the first offending lane.
    pub fn validate(&self) -> Result<(), PolicyError> {
        for class in QosClass::ALL {
            if self.lane(class).max_batch == 0 {
                return Err(PolicyError::ZeroMaxBatch { class });
            }
        }
        Ok(())
    }
}

/// A misconfigured [`QueuePolicy`], detected at construction rather than
/// silently papered over at drain time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PolicyError {
    /// A lane was configured with `max_batch == 0`.
    ZeroMaxBatch {
        /// The offending lane's class.
        class: QosClass,
    },
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::ZeroMaxBatch { class } => {
                write!(f, "{} lane has max_batch = 0 (must be >= 1)", class.name())
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// An entry as it sits in (or leaves) a lane.
#[derive(Debug, Clone)]
pub struct Queued<T> {
    /// The caller's payload.
    pub item: T,
    /// The lane it was admitted to.
    pub class: QosClass,
    /// When it was admitted.
    pub enqueued_at: Instant,
    /// Absolute deadline; at this instant the entry is expired.
    pub deadline_at: Instant,
    /// Admission sequence number — the EDF tie-break, so equal deadlines
    /// drain in arrival order.
    seq: u64,
}

/// Why an enqueue was refused; carries the item back to the caller so a
/// response can still be delivered.
#[derive(Debug)]
pub enum EnqueueRejection<T> {
    /// The lane was full — explicit backpressure.
    QueueFull {
        /// The refused item.
        item: T,
        /// Lane depth at the attempt.
        depth: usize,
        /// Lane capacity.
        capacity: usize,
    },
    /// The deadline had already passed at enqueue.
    AlreadyExpired {
        /// The refused item.
        item: T,
        /// How far past the deadline the attempt was.
        late_by: Duration,
    },
}

#[derive(Debug)]
struct Lane<T> {
    policy: LanePolicy,
    discipline: QueueDiscipline,
    // EDF: sorted ascending by (deadline_at, seq), index 0 is the front.
    // FIFO: sorted by seq (arrival), index 0 is the oldest arrival.
    entries: Vec<Queued<T>>,
    /// Highest depth this lane ever reached.
    high_water: usize,
}

impl<T> Lane<T> {
    fn oldest_enqueue(&self) -> Option<Instant> {
        self.entries.iter().map(|e| e.enqueued_at).min()
    }

    /// The earliest deadline queued in this lane. Under EDF that is the
    /// front entry; under FIFO the front is the oldest *arrival*, so the
    /// whole lane is scanned.
    fn urgent_deadline(&self) -> Option<Instant> {
        match self.discipline {
            QueueDiscipline::Edf => self.entries.first().map(|e| e.deadline_at),
            QueueDiscipline::Fifo => self.entries.iter().map(|e| e.deadline_at).min(),
        }
    }

    /// Whether this lane should fire a batch at `now`.
    fn ready(&self, now: Instant) -> bool {
        if self.entries.is_empty() {
            return false;
        }
        if self.entries.len() >= self.policy.max_batch {
            return true;
        }
        // Age trigger: the oldest entry has waited its fill, or the most
        // urgent deadline is inside the coalescing window (waiting the
        // full window would risk expiring it for nothing).
        let age_due = self
            .oldest_enqueue()
            .is_some_and(|t| now.saturating_duration_since(t) >= self.policy.max_age);
        // An overflowing window end means the window covers every
        // representable instant, so any deadline counts as close.
        let deadline_close = self
            .urgent_deadline()
            .is_some_and(|d| now.checked_add(self.policy.max_age).is_none_or(|w| d <= w));
        age_due || deadline_close
    }
}

/// When the deadline-proximity trigger for an entry expiring at
/// `deadline_at` should wake a worker: `max_age` ahead of the deadline,
/// so the batch still fires with slack. When that subtraction underflows
/// (a deadline within `max_age` of the `Instant` epoch) the trigger clamps
/// to `now` — waking immediately, with whatever slack remains. The old
/// fallback of `deadline_at` itself scheduled a zero-slack wake that could
/// only ever expire the entry.
///
/// In the current call graph the underflow branch is a defensive backstop:
/// [`Lane::ready`] reports ready (and [`AdmissionQueue::next_wakeup`]
/// short-circuits to `now`) whenever `deadline_at <= now + max_age`, which
/// covers every instant at which the subtraction could underflow.
fn proximity_trigger(deadline_at: Instant, max_age: Duration, now: Instant) -> Instant {
    deadline_at.checked_sub(max_age).unwrap_or(now)
}

/// The three-lane deadline-aware queue. See the module docs.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    lanes: [Lane<T>; 3],
    seq: u64,
    depth_high_water: usize,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue under `policy`.
    ///
    /// # Errors
    /// [`PolicyError`] when the policy fails [`QueuePolicy::validate`].
    pub fn new(policy: &QueuePolicy) -> Result<AdmissionQueue<T>, PolicyError> {
        policy.validate()?;
        let lane = |p: &LanePolicy| Lane {
            policy: *p,
            discipline: policy.discipline,
            entries: Vec::new(),
            high_water: 0,
        };
        Ok(AdmissionQueue {
            lanes: [lane(&policy.urllc), lane(&policy.embb), lane(&policy.mmtc)],
            seq: 0,
            depth_high_water: 0,
        })
    }

    fn lane(&self, class: QosClass) -> &Lane<T> {
        &self.lanes[class.priority_rank()]
    }

    /// Attempts to admit `item` into `class`'s lane.
    ///
    /// # Errors
    /// [`EnqueueRejection::AlreadyExpired`] when `deadline_at <= now`,
    /// [`EnqueueRejection::QueueFull`] when the lane is at capacity; both
    /// return the item so the caller can answer the request.
    pub fn enqueue(
        &mut self,
        item: T,
        class: QosClass,
        now: Instant,
        deadline_at: Instant,
    ) -> Result<(), EnqueueRejection<T>> {
        if deadline_at <= now {
            return Err(EnqueueRejection::AlreadyExpired {
                item,
                late_by: now.saturating_duration_since(deadline_at),
            });
        }
        let lane = &mut self.lanes[class.priority_rank()];
        if lane.entries.len() >= lane.policy.capacity {
            return Err(EnqueueRejection::QueueFull {
                item,
                depth: lane.entries.len(),
                capacity: lane.policy.capacity,
            });
        }
        let seq = self.seq;
        self.seq += 1;
        let entry = Queued {
            item,
            class,
            enqueued_at: now,
            deadline_at,
            seq,
        };
        match lane.discipline {
            QueueDiscipline::Edf => {
                let at = lane
                    .entries
                    .partition_point(|e| (e.deadline_at, e.seq) <= (entry.deadline_at, entry.seq));
                lane.entries.insert(at, entry);
            }
            // Arrival order: seq is monotone, so pushing keeps the sort.
            QueueDiscipline::Fifo => lane.entries.push(entry),
        }
        lane.high_water = lane.high_water.max(lane.entries.len());
        self.depth_high_water = self.depth_high_water.max(self.depth());
        Ok(())
    }

    /// Removes and returns every entry whose deadline has passed at
    /// `now`, across all lanes — including a whole lane expiring at
    /// once. Swept entries are *never* returned by
    /// [`AdmissionQueue::next_batch`] afterwards.
    pub fn sweep_expired(&mut self, now: Instant) -> Vec<Queued<T>> {
        let mut expired = Vec::new();
        for lane in &mut self.lanes {
            match lane.discipline {
                QueueDiscipline::Edf => {
                    // EDF order ⇒ expired entries form a prefix of the lane.
                    let cut = lane.entries.partition_point(|e| e.deadline_at <= now);
                    expired.extend(lane.entries.drain(..cut));
                }
                QueueDiscipline::Fifo => {
                    // Arrival order says nothing about deadlines: expired
                    // entries can sit anywhere, so partition the whole
                    // lane, keeping the survivors' arrival order.
                    let mut live = Vec::with_capacity(lane.entries.len());
                    for e in lane.entries.drain(..) {
                        if e.deadline_at <= now {
                            expired.push(e);
                        } else {
                            live.push(e);
                        }
                    }
                    lane.entries = live;
                }
            }
        }
        expired
    }

    /// Drains the next ready batch, visiting lanes in priority order.
    ///
    /// A lane fires when it holds `max_batch` entries, when its oldest
    /// entry has waited `max_age`, or when its most urgent deadline falls
    /// inside the coalescing window; `force` fires any non-empty lane
    /// regardless (shutdown drain). At most `max_batch` entries are
    /// drained, earliest deadline first. Callers should
    /// [`AdmissionQueue::sweep_expired`] first so a batch never contains
    /// an already-expired entry.
    pub fn next_batch(&mut self, now: Instant, force: bool) -> Option<(QosClass, Vec<Queued<T>>)> {
        QosClass::ALL.into_iter().find_map(|class| {
            self.drain_lane(class, now, force)
                .map(|batch| (class, batch))
        })
    }

    /// Drains the next batch from `class`'s lane alone, under the same
    /// firing rules as [`AdmissionQueue::next_batch`]; `None` when that
    /// lane is empty or not ready. Lets a caller that holds back some
    /// classes still visit the others in priority order.
    pub fn drain_lane(
        &mut self,
        class: QosClass,
        now: Instant,
        force: bool,
    ) -> Option<Vec<Queued<T>>> {
        let lane = &mut self.lanes[class.priority_rank()];
        if lane.entries.is_empty() || !(force || lane.ready(now)) {
            return None;
        }
        let take = lane.policy.max_batch.min(lane.entries.len());
        Some(lane.entries.drain(..take).collect())
    }

    /// The next instant at which something becomes actionable: a batch
    /// trigger (age fill or deadline proximity) or an expiry sweep.
    /// `None` when the queue is empty. A returned instant `<= now` means
    /// "act immediately".
    pub fn next_wakeup(&self, now: Instant) -> Option<Instant> {
        self.next_wakeup_among(now, |_| true)
    }

    /// [`AdmissionQueue::next_wakeup`] over only the lanes whose class
    /// `include` accepts — for a caller that will not drain the other
    /// lanes until some event of its own, and so must not spin on them.
    pub fn next_wakeup_among(
        &self,
        now: Instant,
        include: impl Fn(QosClass) -> bool,
    ) -> Option<Instant> {
        let mut wake: Option<Instant> = None;
        let mut consider = |t: Instant| {
            wake = Some(match wake {
                Some(w) => w.min(t),
                None => t,
            });
        };
        for (lane, class) in self.lanes.iter().zip(QosClass::ALL) {
            if lane.entries.is_empty() || !include(class) {
                continue;
            }
            if lane.ready(now) {
                return Some(now);
            }
            // An age trigger past the representable range can never fire
            // within the process lifetime — nothing to schedule for it.
            if let Some(fill) = lane
                .oldest_enqueue()
                .and_then(|oldest| oldest.checked_add(lane.policy.max_age))
            {
                consider(fill);
            }
            if let Some(urgent) = lane.urgent_deadline() {
                // Deadline-proximity trigger, then the expiry itself.
                consider(proximity_trigger(urgent, lane.policy.max_age, now));
                consider(urgent);
            }
        }
        wake
    }

    /// Total queued entries across lanes.
    pub fn depth(&self) -> usize {
        self.lanes.iter().map(|l| l.entries.len()).sum()
    }

    /// Queued entries in `class`'s lane.
    pub fn lane_depth(&self, class: QosClass) -> usize {
        self.lane(class).entries.len()
    }

    /// Whether every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.depth() == 0
    }

    /// Highest total depth ever observed (for metrics).
    pub fn depth_high_water(&self) -> usize {
        self.depth_high_water
    }

    /// Highest depth `class`'s lane ever reached.
    pub fn lane_depth_high_water(&self, class: QosClass) -> usize {
        self.lane(class).high_water
    }

    /// Per-lane high waters indexed by [`QosClass::priority_rank`].
    pub fn lane_high_waters(&self) -> [usize; 3] {
        [
            self.lanes[0].high_water,
            self.lanes[1].high_water,
            self.lanes[2].high_water,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(capacity: usize, max_batch: usize, max_age_us: u64) -> QueuePolicy {
        let lane = LanePolicy {
            capacity,
            max_batch,
            max_age: Duration::from_micros(max_age_us),
        };
        QueuePolicy {
            urllc: lane,
            embb: lane,
            mmtc: lane,
            discipline: QueueDiscipline::Edf,
        }
    }

    fn far(t0: Instant) -> Instant {
        t0 + Duration::from_secs(3600)
    }

    #[test]
    fn edf_order_within_lane_with_fifo_tiebreak() {
        let mut q = AdmissionQueue::new(&policy(16, 16, 0)).unwrap();
        let t0 = Instant::now();
        let ms = Duration::from_millis(1);
        q.enqueue("late", QosClass::Embb, t0, t0 + 30 * ms).unwrap();
        q.enqueue("early", QosClass::Embb, t0, t0 + 10 * ms)
            .unwrap();
        q.enqueue("tie-a", QosClass::Embb, t0, t0 + 20 * ms)
            .unwrap();
        q.enqueue("tie-b", QosClass::Embb, t0, t0 + 20 * ms)
            .unwrap();
        let (class, batch) = q.next_batch(t0, false).unwrap();
        assert_eq!(class, QosClass::Embb);
        let order: Vec<&str> = batch.iter().map(|e| e.item).collect();
        assert_eq!(order, ["early", "tie-a", "tie-b", "late"]);
    }

    #[test]
    fn lanes_drain_in_priority_order() {
        let mut q = AdmissionQueue::new(&policy(16, 4, 0)).unwrap();
        let t0 = Instant::now();
        q.enqueue("mmtc", QosClass::Mmtc, t0, far(t0)).unwrap();
        q.enqueue("embb", QosClass::Embb, t0, far(t0)).unwrap();
        q.enqueue("urllc", QosClass::Urllc, t0, far(t0)).unwrap();
        let classes: Vec<QosClass> = std::iter::from_fn(|| q.next_batch(t0, false))
            .map(|(c, _)| c)
            .collect();
        assert_eq!(classes, [QosClass::Urllc, QosClass::Embb, QosClass::Mmtc]);
        assert!(q.is_empty());
    }

    #[test]
    fn zero_capacity_lane_rejects_everything() {
        let mut q = AdmissionQueue::new(&policy(0, 1, 0)).unwrap();
        let t0 = Instant::now();
        match q.enqueue(7u32, QosClass::Urllc, t0, far(t0)) {
            Err(EnqueueRejection::QueueFull {
                item,
                depth,
                capacity,
            }) => {
                assert_eq!(item, 7);
                assert_eq!(depth, 0);
                assert_eq!(capacity, 0);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert!(q.is_empty());
        assert_eq!(q.depth_high_water(), 0);
    }

    #[test]
    fn full_lane_rejects_with_backpressure_only_for_that_lane() {
        let mut q = AdmissionQueue::new(&policy(2, 8, 1_000_000)).unwrap();
        let t0 = Instant::now();
        q.enqueue(0u32, QosClass::Mmtc, t0, far(t0)).unwrap();
        q.enqueue(1, QosClass::Mmtc, t0, far(t0)).unwrap();
        assert!(matches!(
            q.enqueue(2, QosClass::Mmtc, t0, far(t0)),
            Err(EnqueueRejection::QueueFull {
                depth: 2,
                capacity: 2,
                ..
            })
        ));
        // Other lanes are unaffected by mMTC backpressure.
        q.enqueue(3, QosClass::Urllc, t0, far(t0)).unwrap();
        assert_eq!(q.lane_depth(QosClass::Mmtc), 2);
        assert_eq!(q.lane_depth(QosClass::Urllc), 1);
    }

    #[test]
    fn expired_at_enqueue_is_reported_not_queued() {
        let mut q = AdmissionQueue::new(&policy(4, 1, 0)).unwrap();
        let t0 = Instant::now();
        let now = t0 + Duration::from_millis(5);
        match q.enqueue("dead", QosClass::Embb, now, t0 + Duration::from_millis(2)) {
            Err(EnqueueRejection::AlreadyExpired { item, late_by }) => {
                assert_eq!(item, "dead");
                assert_eq!(late_by, Duration::from_millis(3));
            }
            other => panic!("expected AlreadyExpired, got {other:?}"),
        }
        // Deadline exactly at `now` also counts as expired.
        assert!(matches!(
            q.enqueue("edge", QosClass::Embb, now, now),
            Err(EnqueueRejection::AlreadyExpired { .. })
        ));
        assert!(q.is_empty());
    }

    #[test]
    fn whole_lane_simultaneous_expiry_is_swept_never_batched() {
        let mut q = AdmissionQueue::new(&policy(16, 16, 1_000_000)).unwrap();
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(1);
        for i in 0..5u32 {
            q.enqueue(i, QosClass::Mmtc, t0, deadline).unwrap();
        }
        // One survivor in another lane proves the sweep is per-entry.
        q.enqueue(99, QosClass::Urllc, t0, far(t0)).unwrap();

        let later = t0 + Duration::from_millis(2);
        let swept = q.sweep_expired(later);
        assert_eq!(swept.len(), 5);
        assert!(swept.iter().all(|e| e.class == QosClass::Mmtc));
        assert!(swept.iter().all(|e| e.deadline_at <= later));
        assert_eq!(q.lane_depth(QosClass::Mmtc), 0);
        // What remains is only the unexpired entry.
        let (class, batch) = q.next_batch(later, true).unwrap();
        assert_eq!(class, QosClass::Urllc);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].item, 99);
        assert!(q.next_batch(later, true).is_none());
    }

    #[test]
    fn batching_coalesces_until_fill_or_age() {
        let mut q = AdmissionQueue::new(&policy(16, 3, 500)).unwrap();
        let t0 = Instant::now();
        q.enqueue(0u32, QosClass::Embb, t0, far(t0)).unwrap();
        q.enqueue(1, QosClass::Embb, t0, far(t0)).unwrap();
        // Below fill, below age: not ready yet.
        assert!(q.next_batch(t0, false).is_none());
        // Fill trigger at 3.
        q.enqueue(2, QosClass::Embb, t0, far(t0)).unwrap();
        let (_, batch) = q.next_batch(t0, false).unwrap();
        assert_eq!(batch.len(), 3);
        // Age trigger: a lone entry fires once it has waited max_age.
        q.enqueue(3, QosClass::Embb, t0, far(t0)).unwrap();
        assert!(q.next_batch(t0, false).is_none());
        let aged = t0 + Duration::from_micros(500);
        let (_, batch) = q.next_batch(aged, false).unwrap();
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn urgent_deadline_fires_before_age_fill() {
        let mut q = AdmissionQueue::new(&policy(16, 8, 10_000)).unwrap();
        let t0 = Instant::now();
        // Deadline inside the 10ms coalescing window → fire immediately.
        q.enqueue(0u32, QosClass::Mmtc, t0, t0 + Duration::from_millis(5))
            .unwrap();
        assert!(q.next_batch(t0, false).is_some());
    }

    #[test]
    fn wakeup_tracks_earliest_trigger() {
        let mut q: AdmissionQueue<u32> = AdmissionQueue::new(&policy(16, 8, 1_000)).unwrap();
        let t0 = Instant::now();
        assert_eq!(q.next_wakeup(t0), None);
        let deadline = t0 + Duration::from_millis(50);
        q.enqueue(0, QosClass::Embb, t0, deadline).unwrap();
        let wake = q.next_wakeup(t0).unwrap();
        // The age trigger (t0 + 1ms) comes before the deadline triggers.
        assert_eq!(wake, t0 + Duration::from_millis(1));
        // Once ready, wakeup is immediate.
        let at_age = t0 + Duration::from_millis(1);
        assert_eq!(q.next_wakeup(at_age), Some(at_age));
    }

    #[test]
    fn zero_max_batch_is_rejected_at_construction() {
        // Regression test: `max_batch == 0` used to be silently clamped to
        // 1 at drain time; it is now a typed construction error naming the
        // offending lane.
        let mut p = policy(16, 4, 0);
        p.embb.max_batch = 0;
        assert_eq!(
            p.validate(),
            Err(PolicyError::ZeroMaxBatch {
                class: QosClass::Embb,
            })
        );
        match AdmissionQueue::<u32>::new(&p) {
            Err(e @ PolicyError::ZeroMaxBatch { class }) => {
                assert_eq!(class, QosClass::Embb);
                assert!(e.to_string().contains("max_batch = 0"));
            }
            Ok(_) => panic!("zero max_batch must not construct"),
        }
        assert!(policy(16, 1, 0).validate().is_ok());
    }

    #[test]
    fn near_epoch_deadline_proximity_trigger_clamps_to_now() {
        // Regression test: when `deadline_at - max_age` underflows (a
        // deadline close to the Instant epoch), the trigger used to fall
        // back to the deadline itself — a zero-slack wake that could only
        // expire the entry. It must clamp to `now` instead.
        //
        // Construct an instant near the platform's representable minimum
        // by walking backwards with doubling steps (the minimum can be
        // ~292 billion years before now, so a fixed step never gets
        // there).
        let hour = Duration::from_secs(3600);
        let mut early = Instant::now();
        let mut step = hour;
        while let Some(e) = early.checked_sub(step) {
            early = e;
            step = step.saturating_mul(2);
        }
        let deadline = early + hour;
        let max_age = step.saturating_mul(4); // >= step + hour: must underflow
        let now = Instant::now();
        assert!(
            deadline.checked_sub(max_age).is_none(),
            "setup must underflow"
        );
        let wake = proximity_trigger(deadline, max_age, now);
        assert_eq!(wake, now, "underflow must clamp to now, not the deadline");
        // The non-underflow path is unchanged.
        let t0 = Instant::now();
        let d = t0 + Duration::from_millis(50);
        assert_eq!(
            proximity_trigger(d, Duration::from_millis(10), t0),
            d - Duration::from_millis(10)
        );
    }

    #[test]
    fn fifo_drains_in_arrival_order_ignoring_deadlines() {
        let mut p = policy(16, 16, 0);
        p.discipline = QueueDiscipline::Fifo;
        let mut q = AdmissionQueue::new(&p).unwrap();
        let t0 = Instant::now();
        let ms = Duration::from_millis(1);
        q.enqueue("late", QosClass::Embb, t0, t0 + 30 * ms).unwrap();
        q.enqueue("early", QosClass::Embb, t0, t0 + 10 * ms)
            .unwrap();
        q.enqueue("mid", QosClass::Embb, t0, t0 + 20 * ms).unwrap();
        let (_, batch) = q.next_batch(t0, false).unwrap();
        let order: Vec<&str> = batch.iter().map(|e| e.item).collect();
        assert_eq!(order, ["late", "early", "mid"]);
    }

    #[test]
    fn fifo_sweeps_mid_queue_expiry_preserving_arrival_order() {
        let mut p = policy(16, 16, 1_000_000);
        p.discipline = QueueDiscipline::Fifo;
        let mut q = AdmissionQueue::new(&p).unwrap();
        let t0 = Instant::now();
        let ms = Duration::from_millis(1);
        // The soon-to-expire entry sits in the middle of the lane, which
        // the EDF prefix sweep would miss under FIFO ordering.
        q.enqueue("keep-a", QosClass::Mmtc, t0, far(t0)).unwrap();
        q.enqueue("dies", QosClass::Mmtc, t0, t0 + 2 * ms).unwrap();
        q.enqueue("keep-b", QosClass::Mmtc, t0, far(t0)).unwrap();
        let later = t0 + 5 * ms;
        let swept = q.sweep_expired(later);
        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].item, "dies");
        let (_, batch) = q.next_batch(later, true).unwrap();
        let order: Vec<&str> = batch.iter().map(|e| e.item).collect();
        assert_eq!(order, ["keep-a", "keep-b"]);
    }

    #[test]
    fn fifo_urgent_deadline_still_triggers_and_wakes() {
        let mut p = policy(16, 8, 10_000);
        p.discipline = QueueDiscipline::Fifo;
        let mut q = AdmissionQueue::new(&p).unwrap();
        let t0 = Instant::now();
        // The urgent deadline is on the *second* arrival; FIFO must still
        // see it (scan, not front-peek) for both ready() and next_wakeup().
        q.enqueue(0u32, QosClass::Mmtc, t0, far(t0)).unwrap();
        assert!(q.next_batch(t0, false).is_none());
        q.enqueue(1, QosClass::Mmtc, t0, t0 + Duration::from_millis(5))
            .unwrap();
        assert_eq!(q.next_wakeup(t0), Some(t0));
        assert!(q.next_batch(t0, false).is_some());
    }

    #[test]
    fn per_lane_high_water_tracks_each_lane_independently() {
        let mut q = AdmissionQueue::new(&policy(4, 16, 1_000_000)).unwrap();
        let t0 = Instant::now();
        for i in 0..4u32 {
            q.enqueue(i, QosClass::Mmtc, t0, far(t0)).unwrap();
        }
        // Full lane: rejection implies the lane's high water hit capacity.
        assert!(matches!(
            q.enqueue(4, QosClass::Mmtc, t0, far(t0)),
            Err(EnqueueRejection::QueueFull { .. })
        ));
        q.enqueue(5, QosClass::Urllc, t0, far(t0)).unwrap();
        let _ = q.next_batch(t0, true);
        let _ = q.next_batch(t0, true);
        assert_eq!(q.lane_depth_high_water(QosClass::Mmtc), 4);
        assert_eq!(q.lane_depth_high_water(QosClass::Urllc), 1);
        assert_eq!(q.lane_depth_high_water(QosClass::Embb), 0);
        assert_eq!(q.lane_high_waters(), [1, 0, 4]);
        // Draining does not lower a high water.
        assert!(q.is_empty());
        assert_eq!(q.depth_high_water(), 5);
    }

    #[test]
    fn overflowing_coalescing_window_covers_every_deadline() {
        // `max_age` so large that `now + max_age` overflows the Instant
        // range. The window then covers every representable instant:
        // any queued deadline must count as close (batch fires), and
        // next_wakeup must schedule rather than panic.
        let mut q = AdmissionQueue::new(&policy(16, 16, 0)).unwrap();
        for lane in &mut q.lanes {
            lane.policy.max_age = Duration::from_secs(u64::MAX);
        }
        let t0 = Instant::now();
        q.enqueue("only", QosClass::Embb, t0, far(t0)).unwrap();
        assert_eq!(q.next_wakeup(t0), Some(t0));
        let (_, batch) = q.next_batch(t0, false).expect("window covers the deadline");
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn high_water_tracks_total_depth() {
        let mut q = AdmissionQueue::new(&policy(16, 16, 1_000_000)).unwrap();
        let t0 = Instant::now();
        for i in 0..4u32 {
            q.enqueue(i, QosClass::Embb, t0, far(t0)).unwrap();
        }
        q.enqueue(4, QosClass::Urllc, t0, far(t0)).unwrap();
        let _ = q.next_batch(t0, true);
        assert_eq!(q.depth_high_water(), 5);
    }

    #[test]
    fn drain_lane_and_wakeup_skip_held_back_classes() {
        let mut q = AdmissionQueue::new(&policy(16, 4, 1_000)).unwrap();
        let t0 = Instant::now();
        q.enqueue("urllc", QosClass::Urllc, t0, far(t0)).unwrap();
        for i in 0..4 {
            q.enqueue(["m0", "m1", "m2", "m3"][i], QosClass::Mmtc, t0, far(t0))
                .unwrap();
        }
        // mMTC is full (ready now); URLLC waits for its age trigger.
        assert!(q.drain_lane(QosClass::Urllc, t0, false).is_none());
        assert_eq!(q.next_wakeup(t0), Some(t0));
        // Holding mMTC back leaves only URLLC's age trigger to wait for.
        let age = t0 + Duration::from_millis(1);
        assert_eq!(q.next_wakeup_among(t0, |c| c != QosClass::Mmtc), Some(age));
        assert_eq!(q.next_wakeup_among(t0, |_| false), None);
        let batch = q.drain_lane(QosClass::Mmtc, t0, false).unwrap();
        assert_eq!(batch.len(), 4);
        // `force` drains a lane that is not ready yet.
        let urllc = q.drain_lane(QosClass::Urllc, t0, true).unwrap();
        assert_eq!(urllc[0].item, "urllc");
        assert!(q.is_empty());
    }
}

//! Signals: the communication fabric between components.
//!
//! A signal carries an unsigned value of 1–64 bits, like a wire bundle in
//! hardware. Signals are *double buffered*: during a delta cycle components
//! read the *current* value and write the *next* value; the kernel then
//! commits all writes at once (the SystemC evaluate→update model). A write
//! only counts as a *change* — and only wakes subscribed components — if the
//! committed value differs from the previous one.
//!
//! Values wider than the declared width are masked on write, mirroring how a
//! hardware assignment truncates to the target width.

use crate::component::ComponentId;
use crate::time::SimTime;
use crate::trace::Tracer;

/// Identifier of a signal inside a [`SignalBoard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Raw index form, for use in data structures.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A typed handle to a signal: its id plus its declared bit width.
///
/// `Wire` is `Copy` and is the value components store in their port structs.
///
/// # Examples
///
/// ```
/// use dmi_kernel::Simulator;
///
/// let mut sim = Simulator::new();
/// let w = sim.wire("top.addr", 32);
/// assert_eq!(w.width(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wire {
    pub(crate) id: SignalId,
    pub(crate) width: u8,
}

impl Wire {
    /// The signal id this wire refers to.
    #[inline]
    pub fn id(self) -> SignalId {
        self.id
    }

    /// Declared width in bits (1–64).
    #[inline]
    pub fn width(self) -> u8 {
        self.width
    }
}

/// Edge filter for signal subscriptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// 0 → 1 transition. Only meaningful for 1-bit signals.
    Rising,
    /// 1 → 0 transition. Only meaningful for 1-bit signals.
    Falling,
    /// Any change of value.
    Any,
}

impl Edge {
    /// Whether a committed transition `old → new` matches this filter.
    #[inline]
    pub fn matches(self, old: u64, new: u64) -> bool {
        match self {
            Edge::Rising => old == 0 && new == 1,
            Edge::Falling => old == 1 && new == 0,
            Edge::Any => old != new,
        }
    }
}

#[derive(Debug)]
struct Slot {
    name: String,
    width: u8,
    mask: u64,
    cur: u64,
    next: u64,
    dirty: bool,
    /// Every subscription as declared, for introspection
    /// ([`SignalBoard::subscribers`]); the update phase reads the per-edge
    /// lists below instead.
    subs: Vec<(ComponentId, Edge)>,
    /// Components a committed change to a non-zero value wakes: the
    /// `Rising` and `Any` subscribers, deduplicated, in first-subscription
    /// order. On a multi-bit signal (`Any` only) this is every subscriber
    /// and serves every change.
    rise: Vec<ComponentId>,
    /// Components a committed 1 → 0 change of a 1-bit signal wakes: the
    /// `Falling` and `Any` subscribers, deduplicated, in first-subscription
    /// order. Always empty on a multi-bit signal.
    fall: Vec<ComponentId>,
    traced: bool,
}

/// Storage and delta-commit machinery for all signals of a simulation.
#[derive(Debug, Default)]
pub struct SignalBoard {
    slots: Vec<Slot>,
    pending: Vec<SignalId>,
    /// Per-component wake stamp, indexed by component id and sized to the
    /// highest subscribed one: a component already holds a wake in the
    /// current update phase exactly when its entry equals `stamp`.
    woken_at: Vec<u32>,
    /// Bumped once per update phase, so earlier phases' entries in
    /// `woken_at` go stale without a reset pass (except on wrap-around).
    stamp: u32,
    writes_total: u64,
    commits_total: u64,
}

fn width_mask(width: u8) -> u64 {
    debug_assert!((1..=64).contains(&width));
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl SignalBoard {
    /// Creates an empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a new signal and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn declare(&mut self, name: impl Into<String>, width: u8) -> Wire {
        assert!(
            (1..=64).contains(&width),
            "signal width must be 1..=64, got {width}"
        );
        let id = SignalId(self.slots.len() as u32);
        self.slots.push(Slot {
            name: name.into(),
            width,
            mask: width_mask(width),
            cur: 0,
            next: 0,
            dirty: false,
            subs: Vec::new(),
            rise: Vec::new(),
            fall: Vec::new(),
            traced: false,
        });
        Wire { id, width }
    }

    /// Current (committed) value of a signal.
    #[inline]
    pub fn read(&self, wire: Wire) -> u64 {
        self.slots[wire.id.index()].cur
    }

    /// Current value interpreted as a boolean (non-zero = true).
    #[inline]
    pub fn read_bit(&self, wire: Wire) -> bool {
        self.read(wire) != 0
    }

    /// Writes the *next* value of a signal; it becomes visible after the
    /// next delta commit. The value is masked to the signal's width.
    /// The last write in a delta cycle wins.
    #[inline]
    pub fn write(&mut self, wire: Wire, value: u64) {
        let slot = &mut self.slots[wire.id.index()];
        slot.next = value & slot.mask;
        self.writes_total += 1;
        if !slot.dirty {
            slot.dirty = true;
            self.pending.push(wire.id);
        }
    }

    /// Forces the *current* value without delta semantics. Only for
    /// initialization before the simulation starts.
    pub fn poke(&mut self, wire: Wire, value: u64) {
        let slot = &mut self.slots[wire.id.index()];
        slot.cur = value & slot.mask;
        slot.next = slot.cur;
    }

    /// Subscribes a component to changes of `wire` matching `edge`.
    ///
    /// A component subscribed more than once to one signal (say `Rising`
    /// and `Any`) is still woken at most once per matching change.
    ///
    /// # Panics
    ///
    /// Panics if an edge filter other than [`Edge::Any`] is used on a signal
    /// wider than one bit.
    pub fn subscribe(&mut self, wire: Wire, component: ComponentId, edge: Edge) {
        if component.index() >= self.woken_at.len() {
            self.woken_at.resize(component.index() + 1, 0);
        }
        let slot = &mut self.slots[wire.id.index()];
        assert!(
            edge == Edge::Any || slot.width == 1,
            "edge-filtered subscription on multi-bit signal {}",
            slot.name
        );
        let (on_rise, on_fall) = match edge {
            Edge::Rising => (true, false),
            Edge::Falling => (false, true),
            Edge::Any => (true, slot.width == 1),
        };
        if on_rise && !slot.rise.contains(&component) {
            slot.rise.push(component);
        }
        if on_fall && !slot.fall.contains(&component) {
            slot.fall.push(component);
        }
        slot.subs.push((component, edge));
    }

    /// Attempts to begin a *quiet toggle* of a 1-bit signal: a commit in
    /// the given direction that provably has no observer — no subscriber
    /// whose edge filter matches, no tracer, and no write already pending
    /// this delta. On success the write is counted (so board counters
    /// match the ordinary path) and the caller must later finish it with
    /// [`apply_quiet_toggle`](Self::apply_quiet_toggle) at the end of the
    /// delta, or park it with
    /// [`requeue_quiet_toggle`](Self::requeue_quiet_toggle) if the run
    /// breaks off mid-delta.
    #[inline]
    pub(crate) fn try_begin_quiet_toggle(&mut self, wire: Wire, rising: bool) -> bool {
        let slot = &mut self.slots[wire.id.index()];
        let watchers = if rising { &slot.rise } else { &slot.fall };
        if slot.dirty || slot.traced || !watchers.is_empty() {
            return false;
        }
        self.writes_total += 1;
        true
    }

    /// Completes a quiet toggle at the end of its delta: flips the
    /// committed value in place, bypassing the pending list (the
    /// transition has no observer, so nothing is traced or woken). A write
    /// issued to the same signal later in the delta wins instead —
    /// exactly the last-write-wins rule of the ordinary path, where the
    /// toggle's write came first.
    #[inline]
    pub(crate) fn apply_quiet_toggle(&mut self, wire: Wire) {
        let slot = &mut self.slots[wire.id.index()];
        if slot.dirty {
            return;
        }
        slot.cur ^= 1;
        slot.next = slot.cur;
    }

    /// Converts a still-deferred quiet toggle back into an ordinary
    /// pending write (for runs that break off before the delta's update
    /// phase): the resumed run's first commit then applies it exactly
    /// where the unspecialized path would have. Respects last-write-wins
    /// the same way as [`apply_quiet_toggle`](Self::apply_quiet_toggle);
    /// the write was already counted when the toggle began.
    pub(crate) fn requeue_quiet_toggle(&mut self, wire: Wire) {
        let slot = &mut self.slots[wire.id.index()];
        if slot.dirty {
            return;
        }
        slot.next = (slot.cur ^ 1) & slot.mask;
        slot.dirty = true;
        self.pending.push(wire.id);
    }

    /// The update phase of one delta cycle, in a single pass over the
    /// pending writes: commits each one and, if the value changed, records
    /// it in `tracer` when the signal is traced and appends the wake list
    /// of the edge it made to `wakes` as `(component, signal)` pairs.
    ///
    /// Wakes come out in pending-write order, each signal's list in
    /// first-subscription order, and a component appears at most once per
    /// call — caused by the first change that reached it.
    pub(crate) fn update(
        &mut self,
        time: SimTime,
        tracer: &mut Tracer,
        wakes: &mut Vec<(ComponentId, SignalId)>,
    ) {
        self.commits_total += 1;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Entries may hold any earlier stamp: clear them once every
            // 2^32 update phases rather than once per phase.
            self.woken_at.fill(0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
        for id in self.pending.drain(..) {
            let slot = &mut self.slots[id.index()];
            slot.dirty = false;
            if slot.next == slot.cur {
                continue;
            }
            slot.cur = slot.next;
            if slot.traced {
                tracer.record(time, id, slot.cur);
            }
            let list = if slot.cur == 0 && slot.width == 1 {
                &slot.fall
            } else {
                &slot.rise
            };
            for &cid in list {
                let at = &mut self.woken_at[cid.index()];
                if *at != stamp {
                    *at = stamp;
                    wakes.push((cid, id));
                }
            }
        }
    }

    /// Whether any write is pending (committed or not it may be a no-op).
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Subscribers of a signal, as `(component, edge)` pairs.
    pub fn subscribers(&self, id: SignalId) -> &[(ComponentId, Edge)] {
        &self.slots[id.index()].subs
    }

    /// The hierarchical name a signal was declared with.
    pub fn name(&self, id: SignalId) -> &str {
        &self.slots[id.index()].name
    }

    /// Declared width of a signal.
    pub fn width(&self, id: SignalId) -> u8 {
        self.slots[id.index()].width
    }

    /// Marks a signal for tracing (used by the VCD tracer).
    pub fn set_traced(&mut self, id: SignalId, traced: bool) {
        self.slots[id.index()].traced = traced;
    }

    /// Whether a signal is marked for tracing.
    pub fn is_traced(&self, id: SignalId) -> bool {
        self.slots[id.index()].traced
    }

    /// Number of declared signals.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no signals are declared.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total writes issued since construction.
    pub fn writes_total(&self) -> u64 {
        self.writes_total
    }

    /// Total delta commits performed since construction.
    pub fn commits_total(&self) -> u64 {
        self.commits_total
    }

    /// Iterates over `(id, name, width)` of all signals.
    pub fn iter_meta(&self) -> impl Iterator<Item = (SignalId, &str, u8)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| (SignalId(i as u32), s.name.as_str(), s.width))
    }

    /// Serializes the board's runtime state: per-slot committed/pending
    /// values and dirty flags, the pending-write list, and the write and
    /// commit counters. Declarations (names, widths, subscriptions,
    /// trace marks) are build-time wiring and are not serialized. Nor are
    /// the wake stamps: the next update pass bumps the stamp past every
    /// entry before reading one.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::StateWriter) {
        w.put_u32(self.slots.len() as u32);
        for slot in &self.slots {
            w.put_u64(slot.cur);
            w.put_u64(slot.next);
            w.put_bool(slot.dirty);
        }
        w.put_u32(self.pending.len() as u32);
        for id in &self.pending {
            w.put_u32(id.0);
        }
        w.put_u64(self.writes_total);
        w.put_u64(self.commits_total);
    }

    /// Restores state written by [`SignalBoard::save_state`] onto a
    /// board with the same declarations.
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::StateReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let n = r.get_u32("signal count")? as usize;
        if n != self.slots.len() {
            return Err(SnapshotError::Mismatch {
                context: format!("snapshot has {n} signals, target has {}", self.slots.len()),
            });
        }
        for slot in &mut self.slots {
            slot.cur = r.get_u64("signal value")? & slot.mask;
            slot.next = r.get_u64("signal pending value")? & slot.mask;
            slot.dirty = r.get_bool("signal dirty flag")?;
        }
        let pending = r.get_u32("pending-write count")? as usize;
        self.pending.clear();
        for _ in 0..pending {
            let raw = r.get_u32("pending signal id")?;
            if raw as usize >= self.slots.len() {
                return Err(SnapshotError::Corrupt {
                    context: format!("pending write names signal {raw} of {}", self.slots.len()),
                });
            }
            self.pending.push(SignalId(raw));
        }
        self.writes_total = r.get_u64("signal writes_total")?;
        self.commits_total = r.get_u64("signal commits_total")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecord;
    use proptest::prelude::*;

    type Wakes = Vec<(ComponentId, SignalId)>;

    fn cid(i: usize) -> ComponentId {
        ComponentId::from_raw(i)
    }

    /// Runs one update phase, returning its wakes and trace records.
    fn update(b: &mut SignalBoard) -> (Wakes, Vec<TraceRecord>) {
        let mut tracer = Tracer::new();
        let mut wakes = Vec::new();
        b.update(SimTime::ZERO, &mut tracer, &mut wakes);
        (wakes, tracer.records().to_vec())
    }

    /// The update phase as two passes, kept as the reference for
    /// [`SignalBoard::update`]: first commit every pending write and
    /// collect the `(signal, old, new)` changes, then scan each changed
    /// signal's full subscription list with [`Edge::matches`], waking a
    /// component only if no earlier match in this phase woke it.
    fn oracle_update(b: &mut SignalBoard, time: SimTime, tracer: &mut Tracer, wakes: &mut Wakes) {
        b.commits_total += 1;
        let mut changes = Vec::new();
        for id in b.pending.drain(..) {
            let slot = &mut b.slots[id.index()];
            slot.dirty = false;
            if slot.next != slot.cur {
                changes.push((id, slot.cur, slot.next));
                slot.cur = slot.next;
            }
        }
        let mut woken = vec![false; b.woken_at.len()];
        for (id, old, new) in changes {
            if b.is_traced(id) {
                tracer.record(time, id, new);
            }
            for &(c, edge) in b.subscribers(id) {
                if edge.matches(old, new) && !woken[c.index()] {
                    woken[c.index()] = true;
                    wakes.push((c, id));
                }
            }
        }
    }

    /// A randomized board: signals, subscriptions and per-delta writes.
    #[derive(Debug, Clone)]
    struct BoardCfg {
        /// Per signal: declared width and whether it is traced.
        signals: Vec<(u8, bool)>,
        /// `(component, signal, edge)` in subscription order; the signal
        /// index wraps, and the edge (0 = Rising, 1 = Falling, 2 = Any)
        /// becomes `Any` on multi-bit signals.
        subs: Vec<(usize, usize, usize)>,
        /// Per delta, the `(signal, value)` writes in issue order.
        deltas: Vec<Vec<(usize, u64)>>,
    }

    /// Everything an update sequence observably produced: the wakes of
    /// each delta, the trace, the final values and the commit count.
    type Outcome = (Vec<Wakes>, Vec<TraceRecord>, Vec<u64>, u64);

    fn run_board(cfg: &BoardCfg, fused: bool, prepare: impl FnOnce(&mut SignalBoard)) -> Outcome {
        let mut b = SignalBoard::new();
        let wires: Vec<Wire> = cfg
            .signals
            .iter()
            .enumerate()
            .map(|(i, &(width, traced))| {
                let w = b.declare(format!("s{i}"), width);
                b.set_traced(w.id(), traced);
                w
            })
            .collect();
        for &(c, s, e) in &cfg.subs {
            let w = wires[s % wires.len()];
            let edge = if w.width() == 1 {
                [Edge::Rising, Edge::Falling, Edge::Any][e]
            } else {
                Edge::Any
            };
            b.subscribe(w, cid(c), edge);
        }
        prepare(&mut b);
        let mut tracer = Tracer::new();
        let mut per_delta = Vec::new();
        for (t, writes) in cfg.deltas.iter().enumerate() {
            for &(s, v) in writes {
                b.write(wires[s % wires.len()], v);
            }
            let mut wakes = Vec::new();
            let time = SimTime::from_ticks(t as u64);
            if fused {
                b.update(time, &mut tracer, &mut wakes);
            } else {
                oracle_update(&mut b, time, &mut tracer, &mut wakes);
            }
            per_delta.push(wakes);
        }
        let finals = wires.iter().map(|&w| b.read(w)).collect();
        (
            per_delta,
            tracer.records().to_vec(),
            finals,
            b.commits_total(),
        )
    }

    fn board_strategy() -> impl Strategy<Value = BoardCfg> {
        let width = prop_oneof![3 => Just(1u8), 1 => Just(4u8), 1 => Just(64u8)];
        // Small values make unchanged and same-value writes common; the
        // occasional all-ones value exercises masking.
        let value = prop_oneof![8 => 0u64..4, 1 => Just(u64::MAX)];
        (
            prop::collection::vec((width, any::<bool>()), 1..7),
            // Few components over few signals: one component subscribed
            // to one wire twice (Rising + Any, Falling + Any, or the same
            // edge again) comes up in most cases.
            prop::collection::vec((0usize..5, 0usize..7, 0usize..3), 0..24),
            prop::collection::vec(
                prop::collection::vec((0usize..7, value), 0..8),
                1..if cfg!(miri) { 6 } else { 24 },
            ),
        )
            .prop_map(|(signals, subs, deltas)| BoardCfg {
                signals,
                subs,
                deltas,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 512 }))]

        /// The fused single pass wakes the same components with the same
        /// causes in the same order, and traces the same changes, as the
        /// two-pass commit-then-scan reference.
        #[test]
        fn fused_update_matches_commit_then_scan(cfg in board_strategy()) {
            prop_assert_eq!(run_board(&cfg, true, |_| {}), run_board(&cfg, false, |_| {}));
        }
    }

    /// The dedupe stamp wraps from `u32::MAX` to 0 in the middle of a run:
    /// the wrap must clear every entry, including ones left at small
    /// stamps long ago that the restarted count would otherwise hit.
    /// Components 4 and 5 watch only signal 3, which first changes in the
    /// first delta after the wrap.
    #[test]
    fn wake_stamp_wraps_without_losing_wakes() {
        let cfg = BoardCfg {
            signals: vec![(1, true), (8, false), (1, false), (1, true)],
            subs: vec![
                (0, 0, 0),
                (0, 0, 2),
                (1, 0, 1),
                (1, 1, 2),
                (2, 1, 2),
                (2, 0, 2),
                (3, 2, 0),
                (3, 1, 2),
                (4, 3, 2),
                (5, 3, 0),
                (5, 3, 2),
            ],
            deltas: (0..10u64)
                .map(|d| {
                    let mut w = vec![(0, d % 2 + 1), (1, d), (2, d / 2 % 2 + 1), (1, d + 1)];
                    if d >= 3 {
                        w.push((3, d % 2));
                    }
                    w
                })
                .collect(),
        };
        let fused = run_board(&cfg, true, |b| {
            // Four update phases before the wrap; entries at or below the
            // stamp, as a long run leaves them.
            b.stamp = u32::MAX - 3;
            for (i, at) in b.woken_at.iter_mut().enumerate() {
                *at = 1 + i as u32 % 2;
            }
        });
        let reference = run_board(&cfg, false, |_| {});
        assert_eq!(fused, reference);
        assert_eq!(fused.0[3].last(), Some(&(cid(5), SignalId(3))));
    }

    #[test]
    fn declare_read_write_commit() {
        let mut b = SignalBoard::new();
        let w = b.declare("w", 8);
        b.set_traced(w.id(), true);
        assert_eq!(b.read(w), 0);
        b.write(w, 0x1ff); // masked to 8 bits
        assert_eq!(b.read(w), 0, "write not visible before commit");
        let (_, trace) = update(&mut b);
        assert_eq!(b.read(w), 0xff);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].value, 0xff);
    }

    #[test]
    fn no_change_write_is_not_reported() {
        let mut b = SignalBoard::new();
        let w = b.declare("w", 4);
        b.set_traced(w.id(), true);
        b.subscribe(w, cid(0), Edge::Any);
        b.write(w, 0);
        assert_eq!(update(&mut b), (vec![], vec![]));
        assert!(!b.has_pending());
    }

    #[test]
    fn last_write_wins_within_delta() {
        let mut b = SignalBoard::new();
        let w = b.declare("w", 16);
        b.subscribe(w, cid(0), Edge::Any);
        b.write(w, 1);
        b.write(w, 2);
        b.write(w, 3);
        assert_eq!(update(&mut b).0, vec![(cid(0), w.id())]);
        assert_eq!(b.read(w), 3);
    }

    #[test]
    fn edge_lists_follow_the_transition() {
        let mut b = SignalBoard::new();
        let clk = b.declare("clk", 1);
        b.subscribe(clk, cid(0), Edge::Rising);
        b.subscribe(clk, cid(1), Edge::Falling);
        b.subscribe(clk, cid(2), Edge::Any);
        b.subscribe(clk, cid(0), Edge::Any); // twice: still one wake
        b.write(clk, 1);
        assert_eq!(
            update(&mut b).0,
            vec![(cid(0), clk.id()), (cid(2), clk.id())]
        );
        b.write(clk, 0);
        assert_eq!(
            update(&mut b).0,
            vec![(cid(1), clk.id()), (cid(2), clk.id()), (cid(0), clk.id())]
        );
        assert_eq!(b.subscribers(clk.id()).len(), 4, "introspection keeps all");
    }

    #[test]
    fn one_wake_per_component_per_delta() {
        let mut b = SignalBoard::new();
        let a = b.declare("a", 8);
        let c = b.declare("c", 8);
        b.subscribe(a, cid(0), Edge::Any);
        b.subscribe(c, cid(0), Edge::Any);
        b.subscribe(c, cid(1), Edge::Any);
        b.write(c, 1);
        b.write(a, 1);
        // `c` was written first, so it is the cause for component 0.
        assert_eq!(update(&mut b).0, vec![(cid(0), c.id()), (cid(1), c.id())]);
        b.write(a, 2);
        assert_eq!(
            update(&mut b).0,
            vec![(cid(0), a.id())],
            "next delta wakes again"
        );
    }

    #[test]
    fn width_64_mask_is_full() {
        let mut b = SignalBoard::new();
        let w = b.declare("wide", 64);
        b.write(w, u64::MAX);
        update(&mut b);
        assert_eq!(b.read(w), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "signal width")]
    fn zero_width_rejected() {
        SignalBoard::new().declare("bad", 0);
    }

    #[test]
    #[should_panic(expected = "edge-filtered")]
    fn edge_subscription_on_bus_rejected() {
        let mut b = SignalBoard::new();
        let w = b.declare("bus", 8);
        b.subscribe(w, cid(0), Edge::Rising);
    }

    #[test]
    fn edge_matching() {
        assert!(Edge::Rising.matches(0, 1));
        assert!(!Edge::Rising.matches(1, 0));
        assert!(!Edge::Rising.matches(0, 0));
        assert!(Edge::Falling.matches(1, 0));
        assert!(!Edge::Falling.matches(0, 1));
        assert!(Edge::Any.matches(3, 4));
        assert!(!Edge::Any.matches(4, 4));
    }

    #[test]
    fn poke_bypasses_delta() {
        let mut b = SignalBoard::new();
        let w = b.declare("w", 8);
        b.poke(w, 7);
        assert_eq!(b.read(w), 7);
    }

    #[test]
    fn counters() {
        let mut b = SignalBoard::new();
        let w = b.declare("w", 8);
        b.write(w, 1);
        b.write(w, 2);
        update(&mut b);
        assert_eq!(b.writes_total(), 2);
        assert_eq!(b.commits_total(), 1);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}

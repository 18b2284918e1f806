//! Mid-transfer control.
//!
//! The paper's custom GridFTP client can change the number of data channels
//! *while a transfer is running* (§3) — that capability is what HTEE's
//! search phase and SLAEE's adaptation loop are built on. The engine calls
//! a [`Controller`] at every slice boundary with fresh measurements; the
//! controller may re-allocate channels across the current stage's chunks.

use eadt_sim::{Bytes, SimDuration, SimTime};
use eadt_telemetry::Event;
use serde::{Deserialize, Serialize};

/// Snapshot kind used by controllers with no mutable state.
pub(crate) const STATELESS_KIND: &str = "stateless";

/// A serialized controller state, as stored inside an engine checkpoint.
///
/// The envelope is deliberately opaque: `kind` names the controller type
/// (so a restore into the wrong controller fails loudly instead of
/// silently zeroing state) and `data` carries the controller's own state
/// struct as JSON. Checkpoint resume reconstructs the controller from
/// the run configuration exactly as the original run did, then calls
/// [`Controller::restore`] to fast-forward its mutable state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerSnapshot {
    /// Controller type tag (e.g. `"htee"`, `"fault-aware"`).
    pub kind: String,
    /// The controller's state struct, serialized as JSON. Empty for
    /// stateless controllers.
    pub data: String,
}

impl ControllerSnapshot {
    /// Snapshot of a controller with no mutable state.
    pub fn stateless() -> Self {
        ControllerSnapshot {
            kind: STATELESS_KIND.to_string(),
            data: String::new(),
        }
    }

    /// Wraps a controller state struct under the given kind tag.
    pub fn of<T: Serialize>(kind: &str, state: &T) -> Self {
        ControllerSnapshot {
            kind: kind.to_string(),
            #[expect(
                clippy::expect_used,
                reason = "serde_json::to_string on the plain field-only snapshot structs (no maps, no non-string keys, no fallible Serialize impls) cannot fail"
            )]
            data: serde_json::to_string(state).expect("controller state structs always serialize"),
        }
    }

    /// Unwraps the state struct, checking the kind tag first.
    pub fn payload<T: serde::Deserialize>(&self, kind: &str) -> Result<T, String> {
        if self.kind != kind {
            return Err(format!(
                "controller snapshot kind mismatch: checkpoint holds {:?}, controller expects {kind:?}",
                self.kind
            ));
        }
        serde_json::from_str(&self.data).map_err(|e| format!("controller snapshot ({kind}): {e}"))
    }
}

/// The engine's fault picture as exposed to controllers: *learned* state
/// only (circuit breakers, backoff counts), never the injection oracle —
/// a controller knows what a real client could know.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultView {
    /// Fraction of servers not quarantined (min over both sites); 1.0 on
    /// a healthy path.
    pub capacity_fraction: f64,
    /// Per-server quarantine mask for the sending site (true = breaker
    /// open).
    pub quarantined_src: Vec<bool>,
    /// Per-server quarantine mask for the receiving site.
    pub quarantined_dst: Vec<bool>,
    /// Cumulative channel failures (all causes) so far.
    pub failures: u64,
    /// Channels currently waiting out a backoff/cooldown.
    pub in_backoff: u32,
}

impl Default for FaultView {
    /// The healthy-path view (full capacity, nothing quarantined).
    fn default() -> Self {
        FaultView {
            capacity_fraction: 1.0,
            quarantined_src: Vec::new(),
            quarantined_dst: Vec::new(),
            failures: 0,
            in_backoff: 0,
        }
    }
}

impl FaultView {
    /// Whether any degradation is currently visible.
    pub fn degraded(&self) -> bool {
        self.capacity_fraction < 1.0
    }
}

/// Measurements handed to the controller after every slice.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceCtx {
    /// Simulated time at the end of the slice.
    pub now: SimTime,
    /// Index of the running stage.
    pub stage: usize,
    /// Bytes moved during this slice.
    pub slice_bytes: Bytes,
    /// End-system energy (both sites) spent during this slice, Joules.
    pub slice_energy_j: f64,
    /// Bytes moved since the transfer began.
    pub total_bytes: Bytes,
    /// Bytes still to move in the current stage.
    pub remaining_bytes: Bytes,
    /// Current channel allocation per chunk of the running stage.
    pub channels: Vec<u32>,
    /// Bytes still to move per chunk of the running stage (same order as
    /// `channels`); controllers use this to avoid allocating channels to
    /// finished chunks.
    pub remaining_per_chunk: Vec<Bytes>,
    /// The engine's learned fault state (default/healthy when the run has
    /// no fault plan).
    pub fault: FaultView,
}

impl SliceCtx {
    /// Total channels currently active.
    pub fn total_channels(&self) -> u32 {
        self.channels.iter().sum()
    }

    /// Liveness mask: which chunks still hold bytes.
    pub fn live_chunks(&self) -> Vec<bool> {
        self.remaining_per_chunk
            .iter()
            .map(|b| !b.is_zero())
            .collect()
    }
}

/// What the controller wants the engine to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlAction {
    /// Keep the current allocation.
    Continue,
    /// Re-allocate: one channel count per chunk of the current stage. The
    /// vector length must match the stage's chunk count; counts may be zero
    /// for finished chunks.
    Reallocate(Vec<u32>),
}

/// Observes slices and optionally retunes the running stage. `Send`,
/// because a controller travels with its [`EngineRun`](crate::EngineRun)
/// to whichever worker steps it next.
pub trait Controller: Send {
    /// Called once per slice, after measurements are updated.
    fn on_slice(&mut self, ctx: &SliceCtx) -> ControlAction;

    /// Decision-cadence promise for the engine's macro-stepper: the number
    /// of upcoming `on_slice` calls — *assuming steady state holds* (every
    /// ctx field except `now`, `slice_bytes`, `slice_energy_j`,
    /// `total_bytes` and `remaining_bytes` unchanged; the latter advancing
    /// by a constant per-slice amount) — that are guaranteed to return
    /// [`ControlAction::Continue`], buffer no events, and leave the
    /// controller in a state indistinguishable from having observed those
    /// slices. The engine may then skip calling `on_slice` for that many
    /// slices.
    ///
    /// The conservative default promises nothing, which is always correct:
    /// a controller that accumulates per-slice measurements (window bytes,
    /// probe energy) MUST NOT promise slices it would have accumulated
    /// over, unless it can reconstruct the accumulation from the next ctx
    /// it sees. Any controller overriding this must be covered by the
    /// macro-equivalence suite (enforced by `eadt-lint`'s `horizon` rule).
    fn next_decision_in(&self, _ctx: &SliceCtx, _slice: SimDuration) -> u64 {
        0
    }

    /// True while the controller is actively probing (sacrificing
    /// throughput to measure, e.g. HTEE's search windows). The engine's
    /// energy-attribution ledger books slices under the `probe` phase
    /// while this holds. Contract: a probing controller must return 0
    /// from [`Controller::next_decision_in`] (probing accumulates
    /// per-slice measurements), so the flag is constant across any
    /// macro-stepped window. Default: never probing.
    fn probing(&self) -> bool {
        false
    }

    /// Switches on controller-authored telemetry: after this call the
    /// controller buffers typed events (decisions with reasons, probe
    /// windows, commits) for the engine to drain each slice. Off by
    /// default, so un-instrumented runs never buffer. No-op for
    /// controllers that emit nothing.
    fn enable_event_capture(&mut self) {}

    /// Returns (and clears) the events buffered since the last drain.
    /// The engine timestamps them with the current slice's sim time.
    fn drain_events(&mut self) -> Vec<Event> {
        Vec::new()
    }

    /// Serializes the controller's mutable state for an engine
    /// checkpoint. Called at a slice boundary with the event buffer
    /// drained; configuration (anything reconstructible from the run
    /// setup) need not be included. The default suits controllers with
    /// no mutable state.
    fn snapshot(&self) -> ControllerSnapshot {
        ControllerSnapshot::stateless()
    }

    /// Restores the state written by [`Controller::snapshot`] into a
    /// freshly reconstructed controller. Fails when the snapshot was
    /// taken from a different controller type.
    fn restore(&mut self, snap: &ControllerSnapshot) -> Result<(), String> {
        if snap.kind == STATELESS_KIND {
            Ok(())
        } else {
            Err(format!(
                "controller snapshot kind mismatch: checkpoint holds {:?}, controller is stateless",
                snap.kind
            ))
        }
    }
}

/// A boxed or borrowed controller steers like the controller itself: an
/// [`EngineRun`](crate::EngineRun) owns its controller as a box, and the
/// cold [`Engine`](crate::Engine) wrappers lend it the caller's.
macro_rules! forward_controller {
    ($($ty:ty),+) => {$(
        impl<C: Controller + ?Sized> Controller for $ty {
            fn on_slice(&mut self, ctx: &SliceCtx) -> ControlAction {
                (**self).on_slice(ctx)
            }
            fn next_decision_in(&self, ctx: &SliceCtx, slice: SimDuration) -> u64 {
                (**self).next_decision_in(ctx, slice)
            }
            fn probing(&self) -> bool {
                (**self).probing()
            }
            fn enable_event_capture(&mut self) {
                (**self).enable_event_capture()
            }
            fn drain_events(&mut self) -> Vec<Event> {
                (**self).drain_events()
            }
            fn snapshot(&self) -> ControllerSnapshot {
                (**self).snapshot()
            }
            fn restore(&mut self, snap: &ControllerSnapshot) -> Result<(), String> {
                (**self).restore(snap)
            }
        }
    )+};
}

forward_controller!(Box<C>, &mut C);

/// A controller that never intervenes (all static algorithms).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullController;

impl Controller for NullController {
    fn on_slice(&mut self, _ctx: &SliceCtx) -> ControlAction {
        ControlAction::Continue
    }

    /// Stateless and always `Continue`: any number of slices may be
    /// skipped.
    fn next_decision_in(&self, _ctx: &SliceCtx, _slice: SimDuration) -> u64 {
        u64::MAX
    }
}

/// Fault-aware decorator: wraps any [`Controller`] and overlays recovery
/// behaviour on its allocations.
///
/// While the [`FaultView`] reports degraded capacity (servers
/// quarantined), the inner controller's targets are scaled down by the
/// capacity fraction — fewer channels pounding the surviving servers
/// means less disk-head contention *and* less CPU power, which on
/// single-disk servers is strictly faster and cheaper than piling the
/// full allocation onto them. When the path recovers, concurrency is
/// re-ramped gradually (`ramp_step` channels per slice) instead of
/// snapping back, mirroring how the paper's client walks concurrency
/// levels rather than jumping.
#[derive(Debug, Clone)]
pub struct FaultAware<C> {
    /// The wrapped controller (it sees every slice regardless).
    pub inner: C,
    /// Floor on any live chunk's channels while degraded.
    pub min_channels: u32,
    /// Total channels restored per slice during recovery.
    pub ramp_step: u32,
    desired: Vec<u32>,
    degraded: bool,
    capture: bool,
    events: Vec<Event>,
}

/// Snapshot kind tag for [`FaultAware`].
pub(crate) const FAULT_AWARE_KIND: &str = "fault-aware";

/// Mutable state of [`FaultAware`] as stored in a checkpoint. The
/// decorator's configuration knobs ride along so a tuned decorator
/// survives resume even when the reconstruction used defaults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FaultAwareState {
    min_channels: u32,
    ramp_step: u32,
    desired: Vec<u32>,
    degraded: bool,
    inner: ControllerSnapshot,
}

impl<C> FaultAware<C> {
    /// Wraps a controller with the default floor (1) and ramp (1/slice).
    pub fn new(inner: C) -> Self {
        FaultAware {
            inner,
            min_channels: 1,
            ramp_step: 1,
            desired: Vec::new(),
            degraded: false,
            capture: false,
            events: Vec::new(),
        }
    }

    /// Scales the desired allocation by the capacity fraction, keeping at
    /// least `min_channels` on every chunk the inner controller wants
    /// served.
    fn scaled(&self, frac: f64) -> Vec<u32> {
        self.desired
            .iter()
            .map(|&want| {
                if want == 0 {
                    0
                } else {
                    ((f64::from(want) * frac).round() as u32).max(self.min_channels.max(1))
                }
            })
            .collect()
    }

    /// Moves `current` toward `desired` by at most `ramp_step` total
    /// channel additions (removals apply immediately).
    fn ramped(&self, current: &[u32]) -> Vec<u32> {
        let mut budget = self.ramp_step.max(1);
        current
            .iter()
            .zip(&self.desired)
            .map(|(&cur, &want)| {
                if cur >= want {
                    want
                } else {
                    let add = (want - cur).min(budget);
                    budget -= add;
                    cur + add
                }
            })
            .collect()
    }
}

impl<C: Controller> Controller for FaultAware<C> {
    fn on_slice(&mut self, ctx: &SliceCtx) -> ControlAction {
        // The wrapped controller always sees the slice, so its own probe
        // windows and measurements keep running during an incident.
        let inner_action = self.inner.on_slice(ctx);
        match &inner_action {
            ControlAction::Reallocate(targets) => self.desired = targets.clone(),
            ControlAction::Continue => {
                // While healthy, mirror the engine's live targets so the
                // restore goal tracks its rebalancing; during an incident
                // the pre-incident allocation is the goal and must hold.
                if !self.degraded || self.desired.len() != ctx.channels.len() {
                    self.desired = ctx.channels.clone();
                }
            }
        }
        // A finished chunk never needs its channels restored.
        for (want, rem) in self.desired.iter_mut().zip(&ctx.remaining_per_chunk) {
            if rem.is_zero() {
                *want = 0;
            }
        }
        if ctx.fault.degraded() {
            self.degraded = true;
            let goal = self.scaled(ctx.fault.capacity_fraction);
            if goal != ctx.channels {
                if self.capture {
                    self.events.push(Event::Decision {
                        reason: format!(
                            "shed to {:.0}% capacity ({} quarantined)",
                            ctx.fault.capacity_fraction * 100.0,
                            ctx.fault
                                .quarantined_src
                                .iter()
                                .chain(&ctx.fault.quarantined_dst)
                                .filter(|&&q| q)
                                .count()
                        ),
                        targets: goal.clone(),
                    });
                }
                return ControlAction::Reallocate(goal);
            }
            return ControlAction::Continue;
        }
        if self.degraded {
            let ramped = self.ramped(&ctx.channels);
            if ramped == self.desired {
                self.degraded = false;
            }
            if ramped != ctx.channels {
                if self.capture {
                    self.events.push(Event::Decision {
                        reason: "ramp after recovery".to_string(),
                        targets: ramped.clone(),
                    });
                }
                return ControlAction::Reallocate(ramped);
            }
            return ControlAction::Continue;
        }
        // Healthy and never shed: pure pass-through — the engine owns
        // chunk-completion rebalancing, so second-guessing it here only
        // churns allocations.
        inner_action
    }

    fn probing(&self) -> bool {
        self.inner.probing()
    }

    fn enable_event_capture(&mut self) {
        self.capture = true;
        self.inner.enable_event_capture();
    }

    fn drain_events(&mut self) -> Vec<Event> {
        let mut events = self.inner.drain_events();
        events.append(&mut self.events);
        events
    }

    /// Healthy pass-through defers to the inner controller's promise (the
    /// decorator's own bookkeeping — mirroring `ctx.channels`, zeroing
    /// finished chunks — is idempotent while the ctx is steady). During an
    /// incident or the recovery ramp the decorator acts every slice, so it
    /// promises nothing.
    fn next_decision_in(&self, ctx: &SliceCtx, slice: SimDuration) -> u64 {
        if self.degraded || ctx.fault.degraded() {
            0
        } else {
            self.inner.next_decision_in(ctx, slice)
        }
    }

    fn snapshot(&self) -> ControllerSnapshot {
        debug_assert!(
            self.events.is_empty(),
            "snapshot must follow an event drain"
        );
        ControllerSnapshot::of(
            FAULT_AWARE_KIND,
            &FaultAwareState {
                min_channels: self.min_channels,
                ramp_step: self.ramp_step,
                desired: self.desired.clone(),
                degraded: self.degraded,
                inner: self.inner.snapshot(),
            },
        )
    }

    fn restore(&mut self, snap: &ControllerSnapshot) -> Result<(), String> {
        let state: FaultAwareState = snap.payload(FAULT_AWARE_KIND)?;
        self.min_channels = state.min_channels;
        self.ramp_step = state.ramp_step;
        self.desired = state.desired;
        self.degraded = state.degraded;
        self.inner.restore(&state.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(channels: Vec<u32>, fault: FaultView) -> SliceCtx {
        let per_chunk = vec![Bytes::from_mb(1); channels.len()];
        SliceCtx {
            now: SimTime::ZERO,
            stage: 0,
            slice_bytes: Bytes::ZERO,
            slice_energy_j: 0.0,
            total_bytes: Bytes::ZERO,
            remaining_bytes: Bytes::from_mb(1),
            channels,
            remaining_per_chunk: per_chunk,
            fault,
        }
    }

    #[test]
    fn null_controller_always_continues() {
        let mut c = ctx(vec![1, 2, 3], FaultView::default());
        c.remaining_per_chunk = vec![Bytes::ZERO, Bytes::from_mb(1), Bytes::ZERO];
        assert_eq!(NullController.on_slice(&c), ControlAction::Continue);
        assert_eq!(c.total_channels(), 6);
        assert_eq!(c.live_chunks(), vec![false, true, false]);
    }

    #[test]
    fn default_fault_view_is_healthy() {
        let v = FaultView::default();
        assert!(!v.degraded());
        assert_eq!(v.capacity_fraction, 1.0);
        assert_eq!(v.in_backoff, 0);
    }

    #[test]
    fn fault_aware_passes_through_on_healthy_path() {
        let mut fa = FaultAware::new(NullController);
        let c = ctx(vec![4, 4], FaultView::default());
        assert_eq!(fa.on_slice(&c), ControlAction::Continue);
    }

    #[test]
    fn fault_aware_scales_down_under_degradation_and_reramps() {
        let mut fa = FaultAware::new(NullController);
        let degraded = FaultView {
            capacity_fraction: 0.5,
            quarantined_dst: vec![false, true],
            ..FaultView::default()
        };
        let c = ctx(vec![8], degraded.clone());
        assert_eq!(fa.on_slice(&c), ControlAction::Reallocate(vec![4]));
        // Still degraded, engine applied the 4: stay there.
        let c = ctx(vec![4], degraded);
        assert_eq!(fa.on_slice(&c), ControlAction::Continue);
        // Recovery: climb back one channel per slice, not in one jump.
        let c = ctx(vec![4], FaultView::default());
        assert_eq!(fa.on_slice(&c), ControlAction::Reallocate(vec![5]));
        let c = ctx(vec![5], FaultView::default());
        assert_eq!(fa.on_slice(&c), ControlAction::Reallocate(vec![6]));
        let c = ctx(vec![7], FaultView::default());
        assert_eq!(fa.on_slice(&c), ControlAction::Reallocate(vec![8]));
        // Ramp complete: back to pass-through.
        let c = ctx(vec![8], FaultView::default());
        assert_eq!(fa.on_slice(&c), ControlAction::Continue);
    }

    #[test]
    fn fault_aware_keeps_a_channel_floor_on_live_chunks() {
        let mut fa = FaultAware::new(NullController);
        let degraded = FaultView {
            capacity_fraction: 0.25,
            ..FaultView::default()
        };
        // Chunk with 1 channel stays at the floor; empty chunk stays empty.
        let c = ctx(vec![1, 0, 8], degraded);
        assert_eq!(fa.on_slice(&c), ControlAction::Reallocate(vec![1, 0, 2]));
    }

    #[test]
    fn fault_aware_snapshot_round_trips_mid_ramp() {
        let mut fa = FaultAware::new(NullController);
        let degraded = FaultView {
            capacity_fraction: 0.5,
            ..FaultView::default()
        };
        // Shed, then start the recovery ramp, then snapshot mid-ramp.
        assert_eq!(
            fa.on_slice(&ctx(vec![8], degraded)),
            ControlAction::Reallocate(vec![4])
        );
        assert_eq!(
            fa.on_slice(&ctx(vec![4], FaultView::default())),
            ControlAction::Reallocate(vec![5])
        );
        let snap = fa.snapshot();
        assert_eq!(snap.kind, FAULT_AWARE_KIND);
        let mut restored = FaultAware::new(NullController);
        restored.restore(&snap).unwrap();
        // Both continue the ramp identically from slice to slice.
        for ch in 5..8 {
            let c = ctx(vec![ch], FaultView::default());
            assert_eq!(fa.on_slice(&c), restored.on_slice(&c));
        }
        let c = ctx(vec![8], FaultView::default());
        assert_eq!(fa.on_slice(&c), ControlAction::Continue);
        assert_eq!(restored.on_slice(&c), ControlAction::Continue);
        // JSON transport round-trips the envelope bit-exactly.
        let text = serde_json::to_string(&snap).unwrap();
        let back: ControllerSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn stateless_restore_rejects_foreign_snapshots() {
        let mut null = NullController;
        assert!(null.restore(&ControllerSnapshot::stateless()).is_ok());
        let foreign = ControllerSnapshot {
            kind: "htee".to_string(),
            data: "{}".to_string(),
        };
        let err = null.restore(&foreign).unwrap_err();
        assert!(err.contains("kind mismatch"), "{err}");
        let mut fa = FaultAware::new(NullController);
        assert!(fa.restore(&foreign).is_err());
    }

    /// A controller that reallocates to a fixed target every slice, to
    /// verify the decorator keeps feeding the inner controller.
    struct Fixed(Vec<u32>, u32);

    impl Controller for Fixed {
        fn on_slice(&mut self, _ctx: &SliceCtx) -> ControlAction {
            self.1 += 1;
            ControlAction::Reallocate(self.0.clone())
        }
    }

    #[test]
    fn fault_aware_inner_controller_sees_every_slice() {
        let mut fa = FaultAware::new(Fixed(vec![6], 0));
        let degraded = FaultView {
            capacity_fraction: 0.5,
            ..FaultView::default()
        };
        assert_eq!(
            fa.on_slice(&ctx(vec![6], degraded.clone())),
            ControlAction::Reallocate(vec![3])
        );
        assert_eq!(
            fa.on_slice(&ctx(vec![3], degraded)),
            ControlAction::Continue
        );
        assert_eq!(fa.inner.1, 2);
    }
}

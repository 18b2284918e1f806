//! A minimal discrete-event queue backed by a payload slab.
//!
//! The transfer engine is time-sliced; the control-channel oracle is the
//! one discrete-event simulation. [`EventQueue`] orders its events by
//! simulated time with a stable FIFO tie-break, so that two events
//! scheduled for the same instant fire in the order they were scheduled.
//!
//! Internally the queue separates *ordering* from *storage*: the binary
//! heap holds small `Copy` keys `(at, seq, slot)` while payloads live in a
//! slab of reusable slots. Popped slots go on a free list and are handed
//! back out by the next `schedule`, so a steady-state simulation (schedule
//! one, pop one, millions of times) allocates nothing after warm-up, and
//! heap sift operations move 20-byte keys instead of arbitrary payloads.

use eadt_sim::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event of type `E` scheduled at a simulated instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotone sequence number; breaks ties FIFO.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// Heap key: ordering data plus the slab slot holding the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapKey {
    at: SimTime,
    seq: u64,
    slot: u32,
}

// BinaryHeap is a max-heap; invert the ordering for earliest-first.
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An earliest-first event queue with FIFO tie-breaking and slab-backed
/// payload storage (slots are recycled across schedule/pop cycles).
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapKey>,
    /// Payload slab; `None` marks a slot on the free list.
    slots: Vec<Option<E>>,
    /// Indices of vacant `slots` entries, ready for reuse.
    free: Vec<u32>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).unwrap_or(u32::MAX);
                assert!(slot < u32::MAX, "event slab exceeded u32 slots");
                self.slots.push(Some(event));
                slot
            }
        };
        self.heap.push(HeapKey { at, seq, slot });
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| k.at)
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let key = self.heap.pop()?;
        let event = self.slots[key.slot as usize]
            .take()
            .unwrap_or_else(|| unreachable!("heap key points at a vacant slot"));
        self.free.push(key.slot);
        Some(ScheduledEvent {
            at: key.at,
            seq: key.seq,
            event,
        })
    }

    /// Removes and returns the earliest event if it fires at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<ScheduledEvent<E>> {
        if self.peek_time().is_some_and(|t| t <= now) {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events; slab capacity is retained for reuse.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.free.clear();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            *slot = None;
            self.free.push(i as u32);
        }
    }

    /// Number of payload slots currently allocated (occupied + recyclable).
    /// A steady-state schedule/pop workload holds this constant.
    pub fn slab_slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(t(5), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "early");
        q.schedule(t(100), "late");
        assert_eq!(q.pop_due(t(5)), None);
        assert_eq!(q.pop_due(t(10)).unwrap().event, "early");
        assert_eq!(q.pop_due(t(50)), None);
        assert_eq!(q.pop_due(t(100)).unwrap().event, "late");
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(t(7), 1u32);
        q.schedule(t(3), 2u32);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(3)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1u32);
        q.schedule(t(20), 2);
        assert_eq!(q.pop().unwrap().event, 1);
        q.schedule(t(15), 3);
        q.schedule(t(5), 4); // in the "past" — still fine, earliest-first
        assert_eq!(q.pop().unwrap().event, 4);
        assert_eq!(q.pop().unwrap().event, 3);
        assert_eq!(q.pop().unwrap().event, 2);
    }

    #[test]
    fn steady_state_recycles_slots() {
        let mut q = EventQueue::new();
        // Prime with a working set of 4 pending events.
        for i in 0..4u64 {
            q.schedule(t(i), i);
        }
        let primed = q.slab_slots();
        // A long schedule-one/pop-one steady state must not grow the slab.
        for i in 4..10_000u64 {
            let popped = q.pop().unwrap();
            assert_eq!(popped.event, i - 4);
            q.schedule(t(i), i);
            assert_eq!(q.slab_slots(), primed);
        }
        // Drain; payloads still come out in order.
        for i in 10_000 - 4..10_000u64 {
            assert_eq!(q.pop().unwrap().event, i);
        }
        assert!(q.is_empty());
        assert_eq!(q.slab_slots(), primed);
    }

    #[test]
    fn clear_retains_and_recycles_capacity() {
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.schedule(t(i), i);
        }
        let primed = q.slab_slots();
        q.clear();
        assert!(q.is_empty());
        for i in 0..8u64 {
            q.schedule(t(i), 100 + i);
        }
        assert_eq!(q.slab_slots(), primed);
        assert_eq!(q.pop().unwrap().event, 100);
    }

    #[test]
    fn payloads_need_not_be_eq() {
        // The slab design only orders keys, so payloads without Eq/Ord
        // (e.g. closures' captures, floats) are fine.
        let mut q = EventQueue::new();
        q.schedule(t(2), 2.5f64);
        q.schedule(t(1), 1.5f64);
        assert_eq!(q.pop().unwrap().event, 1.5);
        assert_eq!(q.pop().unwrap().event, 2.5);
    }
}

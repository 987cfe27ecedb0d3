//! The discrete-event core: a future event list ordered by simulated time.
//!
//! Determinism contract: events at equal timestamps are delivered in the
//! order they were scheduled (FIFO tie-break by sequence number), so a run
//! is a pure function of the scenario and seed.
//!
//! The future event list is one `std::collections::BinaryHeap` of 24-byte
//! `(time, seq, slot)` keys; the payloads live in a slot arena beside it,
//! so a sift moves only keys however large the event type is. Keys are
//! compared by `f64::total_cmp(time)` and then `seq`, and the order is
//! reversed so that the max-heap pops the earliest key first. `schedule`
//! rejects non-finite times and normalizes `-0.0` to `+0.0`, so
//! `total_cmp` agrees with numeric order on every admitted time and the
//! pop order is exactly the strict `(time, seq)` order.
//!
//! A heap is enough because the list stays shallow: the runtime files one
//! entry per broadcast frame, not one per receiver, so it holds a few
//! hundred events on the paper scenarios and under a hundred at 100k
//! nodes (`fel_high_water` in the run profile). At that depth a heap
//! operation is a handful of key swaps. A calendar queue ran only
//! 1.00-1.07x as fast as this heap at 100 to 300 nodes even when one
//! entry per receiver made the list 10k deep.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending key: `(time, seq, slot)`. `slot` indexes the payload arena
/// and takes no part in the ordering — `seq` is unique.
#[derive(Clone, Copy, Debug)]
struct Key {
    time: f64,
    seq: u64,
    slot: u32,
}

/// Strict total order on `(time, seq)`, reversed: the key that must pop
/// first compares greatest.
///
/// `total_cmp` (not `partial_cmp(..).unwrap_or(Equal)`) means a NaN that
/// somehow slipped past the schedule-time guard would still be *totally*
/// ordered — it sorts deterministically instead of silently corrupting
/// the heap invariants and with them the FIFO determinism contract. The
/// schedule-time NaN rejection stays in place regardless.
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

/// A deterministic future event list.
///
/// ```
/// use alert_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(2.0, "later");
/// q.schedule(1.0, "sooner");
/// q.schedule(1.0, "sooner-but-second");
/// assert_eq!(q.pop(), Some((1.0, "sooner")));
/// assert_eq!(q.pop(), Some((1.0, "sooner-but-second")));
/// assert_eq!(q.pop(), Some((2.0, "later")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    /// Slot arena holding the payloads of pending events; `free` lists
    /// vacated slots for reuse, so a steady-state schedule/pop workload
    /// allocates nothing once the arena has grown to the peak occupancy.
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    next_seq: u64,
    now: f64,
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: 0.0,
            high_water: 0,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The largest number of events that were ever pending at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// Scheduling in the past (a delay computed as a tiny negative float)
    /// is clamped to `now`; the event still runs after already-queued
    /// events at `now`, preserving causality. A `-0.0` timestamp is
    /// normalized to `+0.0` so `total_cmp` ordering coincides with the
    /// numeric order on every stored time.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or infinite, rather than admitting a value
    /// that has no place in the simulated timeline.
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let time = if time < self.now { self.now } else { time };
        let time = if time == 0.0 { 0.0 } else { time }; // -0.0 -> +0.0
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(event);
                s
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "event arena full");
                self.slots.push(Some(event));
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(Key { time, seq, slot });
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Schedules `event` after a relative delay from the current clock.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        self.schedule(self.now + delay.max(0.0), event)
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let k = self.heap.pop()?;
        debug_assert!(k.time >= self.now, "clock went backwards");
        self.now = k.time;
        let event = self.slots[k.slot as usize]
            .take()
            .expect("heap key points at an occupied slot");
        self.free.push(k.slot);
        Some((k.time, event))
    }

    /// Peeks at the time of the next event without popping.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|k| k.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, 5);
        q.schedule(1.0, 1);
        q.schedule(3.0, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(1.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(2.5, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 2.5);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(10.0, "base");
        q.pop();
        q.schedule_in(5.0, "later");
        assert_eq!(q.pop(), Some((15.0, "later")));
    }

    #[test]
    fn past_times_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(10.0, "a");
        q.pop();
        q.schedule(3.0, "stale");
        assert_eq!(q.pop(), Some((10.0, "stale")));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(4.0, 4);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule_in(1.0, 2); // at t = 2
        q.schedule_in(2.0, 3); // at t = 3
        let rest: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![2, 3, 4]);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(7.0, ());
        assert_eq!(q.peek_time(), Some(7.0));
        assert_eq!(q.now(), 0.0);
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn nan_times_are_rejected() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn infinite_times_are_rejected() {
        let mut q = EventQueue::new();
        q.schedule(f64::INFINITY, ());
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        q.schedule(1.0, ());
        q.schedule(2.0, ());
        q.schedule(3.0, ());
        q.pop();
        q.pop();
        q.schedule(4.0, ());
        assert_eq!(q.high_water(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn far_future_events_pop_after_near_ones() {
        let mut q = EventQueue::new();
        q.schedule(0.5, 1);
        q.schedule(100_000.0, 4);
        q.schedule(7.25, 2);
        q.schedule(99_999.0, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn a_far_future_instant_pops_fifo() {
        let mut q = EventQueue::new();
        q.schedule(0.0, -1);
        for i in 0..10 {
            q.schedule(50_000.0, i);
        }
        assert_eq!(q.pop(), Some((0.0, -1)));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn growing_waves_with_interleaved_pops_keep_order() {
        // Push ever larger waves, interleaving pops, and check against a
        // sorted reference of the surviving population.
        let mut q = EventQueue::new();
        let mut expect: Vec<(f64, u32)> = Vec::new();
        let mut n = 0u32;
        for wave in 0..6 {
            for i in 0..(1 << wave) * 40 {
                let t = ((i * 37 + wave * 11) % 997) as f64 * 0.01;
                q.schedule(t, n);
                if t >= q.now() {
                    expect.push((t, n));
                } else {
                    expect.push((q.now(), n));
                }
                n += 1;
            }
            for _ in 0..20 {
                let (t, e) = q.pop().unwrap();
                expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let (et, ee) = expect.remove(0);
                assert_eq!((t, e), (et, ee));
            }
        }
        expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (et, ee) in expect {
            let (t, e) = q.pop().unwrap();
            assert_eq!((t.max(q.now()), e), (et.max(q.now()), ee));
            assert_eq!(e, ee);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn negative_zero_times_keep_fifo_order() {
        // -0.0 is normalized to +0.0 on entry, so total_cmp cannot split
        // a same-instant burst by zero sign — the seq FIFO decides, as it
        // did under the old partial_cmp comparator.
        let mut q = EventQueue::new();
        q.schedule(0.0, 0);
        q.schedule(-0.0, 1);
        q.schedule(0.0, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn comparator_totally_orders_nan_keys() {
        // Regression for the old `partial_cmp(..).unwrap_or(Equal)`
        // comparator: a NaN key must still sort deterministically (after
        // every finite time, per total_cmp) instead of comparing Equal to
        // everything and corrupting the heap invariants. The order is
        // reversed for the max-heap: the key that pops first is greater.
        let nan = Key {
            time: f64::NAN,
            seq: 0,
            slot: 0,
        };
        let one = Key {
            time: 1.0,
            seq: 1,
            slot: 0,
        };
        assert_eq!(one.cmp(&nan), Ordering::Greater, "finite pops before NaN");
        assert_eq!(nan.cmp(&one), Ordering::Less);
        let nan2 = Key {
            time: f64::NAN,
            seq: 5,
            slot: 0,
        };
        assert_eq!(nan.cmp(&nan2), Ordering::Greater, "equal NaNs fall to seq");
        assert_eq!(nan2.cmp(&nan), Ordering::Less);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
    }

    #[test]
    fn a_large_same_instant_burst_pops_fifo() {
        let mut q = EventQueue::new();
        for i in 0..5_000 {
            q.schedule(3.0, i);
        }
        for i in 0..5_000 {
            assert_eq!(q.pop(), Some((3.0, i)));
        }
    }

    #[test]
    fn refilling_an_empty_queue_far_ahead_pops_it_next() {
        let mut q = EventQueue::new();
        q.schedule(5.0, 1);
        q.pop();
        // The queue is empty with now = 5.0; an event far ahead of the
        // last one must still be the next to peek and pop.
        q.schedule(1_000_000.0, 2);
        assert_eq!(q.peek_time(), Some(1_000_000.0));
        assert_eq!(q.pop(), Some((1_000_000.0, 2)));
    }

    /// A dense frame fan-out among sparse timers, the simulator's usual
    /// shape, must pop in exactly the `(time, seq)` order of the flat
    /// model, including a same-instant cluster inside the burst.
    #[test]
    fn a_dense_burst_among_sparse_timers_keeps_pop_order() {
        let mut q = EventQueue::new();
        let mut model: Vec<(f64, u64)> = Vec::new();
        for i in 0..8u64 {
            q.schedule(i as f64 * 0.5, i);
            model.push((i as f64 * 0.5, i));
        }
        for i in 0..300u64 {
            let t = 1.0 + 1e-4 + (i % 97) as f64 * 3e-6;
            q.schedule(t, 1000 + i);
            model.push((t, 1000 + i));
        }
        for i in 0..60u64 {
            q.schedule(1.25, 2000 + i);
            model.push((1.25, 2000 + i));
        }
        model.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for want in model {
            assert_eq!(q.peek_time(), Some(want.0));
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
    }

    /// An event scheduled into the middle of a burst that is already
    /// popping takes its place in time order among the burst's events.
    #[test]
    fn insert_into_a_popping_burst_keeps_pop_order() {
        let mut q = EventQueue::new();
        for i in 0..4u64 {
            q.schedule(i as f64, i);
        }
        for i in 0..100u64 {
            let t = 1.0 + 1e-5 + i as f64 * 1e-6;
            q.schedule(t, 100 + i);
        }
        assert_eq!(q.pop(), Some((0.0, 0)));
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((1.0 + 1e-5, 100)));
        q.schedule(1.0 + 1e-5 + 49.5e-6, 999);
        let mut got = Vec::new();
        while let Some((_, e)) = q.pop() {
            got.push(e);
        }
        let mut want: Vec<u64> = (101..150).collect();
        want.push(999);
        want.extend(150..200);
        want.extend([2, 3]);
        assert_eq!(got, want);
    }
}

//! Discrete-event machinery: simulated time, events and the event queue.
//!
//! Simulated time is measured in integer microseconds so event ordering is exact and
//! deterministic (floating-point timestamps would make tie-breaking platform-dependent, which
//! would violate the replication requirement the paper's Section 3.5 puts on the ordering
//! service).

use eov_common::txn::Transaction;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Simulated time in microseconds since the start of the run.
pub type SimTime = u64;

/// Converts milliseconds (possibly fractional) to simulated microseconds.
pub fn ms(value: f64) -> SimTime {
    (value * 1_000.0).round().max(0.0) as SimTime
}

/// One simulation event.
#[derive(Debug)]
pub enum Event {
    /// A client issues the next request; the payload is the request's ordinal number.
    ClientSubmit {
        /// Sequence number of the request (doubles as the transaction id).
        request_no: u64,
    },
    /// An endorsement finishes simulating at this simulated time; the driver broadcasts the
    /// endorsed transaction, which was simulated at submission against the snapshot pinned
    /// then.
    EndorseDone {
        /// The endorsed transaction.
        txn: Transaction,
        /// When the client originally submitted the request.
        submitted_at: SimTime,
    },
    /// The transaction reaches the ordering service (after client delay + consensus latency).
    OrdererReceive {
        /// The endorsed transaction.
        txn: Transaction,
        /// When the client originally submitted the request.
        submitted_at: SimTime,
    },
    /// The block-formation timeout fires for the window opened when `blocks_formed` blocks had
    /// been cut (stale timeouts are ignored by comparing against the current count).
    BlockTimeout {
        /// Number of blocks that had been formed when this timeout was armed.
        blocks_formed_at_arming: u64,
    },
    /// A cut block has been delivered to the validating peer.
    BlockDelivered {
        /// The block's transactions in final commit order (with `end_ts` assigned by the CC).
        /// Shared because the commit scheduler's workers hold the block while it executes;
        /// the runner unwraps (or clones) it when building the ledger block.
        txns: Arc<Vec<Transaction>>,
        /// Submission times of those transactions (for latency accounting), same order.
        submitted_at: Vec<SimTime>,
        /// When the orderer cut the block.
        formed_at: SimTime,
    },
    /// The validator finished processing a delivered block; its effects are applied.
    BlockValidated {
        /// Ledger height this block commits at (assigned in delivery order).
        block_no: u64,
        /// The block's transactions in final commit order.
        txns: Arc<Vec<Transaction>>,
        /// Submission times of those transactions, same order.
        submitted_at: Vec<SimTime>,
    },
}

/// A deterministic priority queue of timestamped events. Ties are broken by insertion order.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    payloads: std::collections::HashMap<u64, Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute simulated time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq)));
        self.payloads.insert(seq, event);
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let Reverse((at, seq)) = self.heap.pop()?;
        let event = self
            .payloads
            .remove(&seq)
            .expect("payload exists for scheduled event");
        Some((at, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_conversion_rounds_to_microseconds() {
        assert_eq!(ms(1.0), 1_000);
        assert_eq!(ms(0.5), 500);
        assert_eq!(ms(0.0004), 0);
        assert_eq!(ms(-3.0), 0);
    }

    #[test]
    fn events_pop_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.schedule(50, Event::ClientSubmit { request_no: 2 });
        q.schedule(10, Event::ClientSubmit { request_no: 1 });
        q.schedule(50, Event::ClientSubmit { request_no: 3 });
        assert_eq!(q.len(), 3);

        let order: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::ClientSubmit { request_no } => (t, request_no),
                _ => panic!("unexpected event"),
            })
            .collect();
        assert_eq!(order, vec![(10, 1), (50, 2), (50, 3)]);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_scheduling_keeps_determinism() {
        let mut q = EventQueue::new();
        q.schedule(5, Event::ClientSubmit { request_no: 1 });
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 5);
        q.schedule(4, Event::ClientSubmit { request_no: 2 });
        q.schedule(
            4,
            Event::BlockTimeout {
                blocks_formed_at_arming: 0,
            },
        );
        let (_, first) = q.pop().unwrap();
        assert!(matches!(first, Event::ClientSubmit { request_no: 2 }));
        let (_, second) = q.pop().unwrap();
        assert!(matches!(second, Event::BlockTimeout { .. }));
    }
}

//! The dynamic micro-batcher: a pure state machine, no threads inside.
//!
//! [`BatcherCore`] owns the pending request groups and implements the
//! whole batching policy:
//!
//! - **flush-on-full**: a group reaching `max_batch` requests is returned
//!   ready immediately,
//! - **flush-on-deadline**: a group older than `max_wait_us` (measured
//!   from its *leader's* arrival) is returned by [`BatcherCore::poll`],
//! - **shed-on-overflow**: pushes beyond the bounded `max_pending` budget
//!   are rejected so the caller can fail the request with
//!   [`crate::ServeError::Overloaded`] instead of queuing unboundedly.
//!
//! All timing flows in through `now_us` arguments (taken from the
//! engine's pluggable [`crate::Clock`]), which is what makes every policy
//! behavior pinnable by deterministic virtual-clock tests. The engine's
//! dispatcher thread is a thin driver around this core.
//!
//! The core is generic over the group key `K` and request payload `T` so
//! the policy can be tested without models or tensors.

/// Outcome of [`BatcherCore::push`].
#[derive(Debug)]
pub enum Push<K, T> {
    /// The request joined a pending group.
    Queued,
    /// The request completed a group (flush-on-full): execute this batch.
    Ready(ReadyBatch<K, T>),
    /// The pending budget is exhausted; the request is handed back
    /// (shed-on-overflow) together with the pending count observed.
    Shed(T, usize),
}

/// A batch the policy decided to execute.
#[derive(Debug)]
pub struct ReadyBatch<K, T> {
    /// The coalescing key all requests in the batch share.
    pub key: K,
    /// The coalesced requests, in arrival order.
    pub requests: Vec<T>,
    /// When the group's first request arrived (µs, batcher clock).
    pub formed_at_us: u64,
}

struct Group<K, T> {
    key: K,
    requests: Vec<T>,
    formed_at_us: u64,
}

/// The micro-batching state machine. See the module docs for the policy.
pub struct BatcherCore<K, T> {
    max_batch: usize,
    max_wait_us: u64,
    max_pending: usize,
    groups: Vec<Group<K, T>>,
    pending: usize,
}

impl<K: Clone + PartialEq, T> BatcherCore<K, T> {
    /// A batcher with the given policy. `max_batch` and `max_pending` are
    /// clamped to at least 1.
    pub fn new(max_batch: usize, max_wait_us: u64, max_pending: usize) -> Self {
        BatcherCore {
            max_batch: max_batch.max(1),
            max_wait_us,
            max_pending: max_pending.max(1),
            groups: Vec::new(),
            pending: 0,
        }
    }

    /// Requests currently waiting in pending groups.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Admits one request under `key` at time `now_us`.
    pub fn push(&mut self, key: K, request: T, now_us: u64) -> Push<K, T> {
        if self.pending >= self.max_pending {
            return Push::Shed(request, self.pending);
        }
        match self.groups.iter_mut().find(|g| g.key == key) {
            Some(g) => g.requests.push(request),
            None => self.groups.push(Group {
                key: key.clone(),
                requests: vec![request],
                formed_at_us: now_us,
            }),
        }
        self.pending += 1;
        // Flush-on-full: hand the completed group straight back.
        let idx = self
            .groups
            .iter()
            .position(|g| g.key == key && g.requests.len() >= self.max_batch);
        match idx {
            Some(i) => Push::Ready(self.take_group(i)),
            None => Push::Queued,
        }
    }

    /// Returns every group whose leader has waited at least `max_wait_us`
    /// by `now_us` (flush-on-deadline), oldest leader first.
    pub fn poll(&mut self, now_us: u64) -> Vec<ReadyBatch<K, T>> {
        let mut out = Vec::new();
        loop {
            let idx = self
                .groups
                .iter()
                .enumerate()
                .filter(|(_, g)| now_us.saturating_sub(g.formed_at_us) >= self.max_wait_us)
                .min_by_key(|(_, g)| g.formed_at_us)
                .map(|(i, _)| i);
            match idx {
                Some(i) => out.push(self.take_group(i)),
                None => return out,
            }
        }
    }

    /// Flushes everything immediately (explicit flush or shutdown),
    /// oldest leader first.
    pub fn flush_all(&mut self) -> Vec<ReadyBatch<K, T>> {
        let mut out = Vec::new();
        while !self.groups.is_empty() {
            let i = self
                .groups
                .iter()
                .enumerate()
                .min_by_key(|(_, g)| g.formed_at_us)
                .map(|(i, _)| i)
                .unwrap_or(0);
            out.push(self.take_group(i));
        }
        out
    }

    /// When the next flush-on-deadline fires (µs), if any group is
    /// pending.
    pub fn next_flush_us(&self) -> Option<u64> {
        self.groups
            .iter()
            .map(|g| g.formed_at_us + self.max_wait_us)
            .min()
    }

    fn take_group(&mut self, i: usize) -> ReadyBatch<K, T> {
        let g = self.groups.swap_remove(i);
        self.pending -= g.requests.len();
        ReadyBatch {
            key: g.key,
            requests: g.requests,
            formed_at_us: g.formed_at_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_resil::clock::{Clock, VirtualClock};

    fn ready_sizes<K, T>(batches: &[ReadyBatch<K, T>]) -> Vec<usize> {
        batches.iter().map(|b| b.requests.len()).collect()
    }

    #[test]
    fn flush_on_full_returns_the_completed_group() {
        let clock = VirtualClock::new();
        let mut b: BatcherCore<u32, usize> = BatcherCore::new(3, 1_000, 16);
        assert!(matches!(b.push(7, 0, clock.now_us()), Push::Queued));
        assert!(matches!(b.push(7, 1, clock.now_us()), Push::Queued));
        match b.push(7, 2, clock.now_us()) {
            Push::Ready(batch) => {
                assert_eq!(batch.key, 7);
                assert_eq!(batch.requests, vec![0, 1, 2]);
                assert_eq!(batch.formed_at_us, 0);
            }
            other => panic!("expected Ready, got {other:?}"),
        }
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn distinct_keys_never_coalesce() {
        let mut b: BatcherCore<u32, usize> = BatcherCore::new(2, 1_000, 16);
        assert!(matches!(b.push(1, 0, 0), Push::Queued));
        assert!(matches!(b.push(2, 1, 0), Push::Queued));
        // Each key still needs a second member to flush on full.
        assert!(matches!(b.push(1, 2, 0), Push::Ready(_)));
        assert_eq!(b.pending(), 1);
    }

    #[test]
    fn flush_on_deadline_fires_at_leader_age() {
        let clock = VirtualClock::new();
        let mut b: BatcherCore<u32, usize> = BatcherCore::new(8, 500, 16);
        b.push(1, 0, clock.now_us());
        clock.advance_us(200);
        b.push(1, 1, clock.now_us());
        // 200 µs after the leader: not due yet.
        assert!(b.poll(clock.now_us()).is_empty());
        assert_eq!(b.next_flush_us(), Some(500));
        clock.advance_us(300);
        // Exactly max_wait after the *leader* (not the second member).
        let due = b.poll(clock.now_us());
        assert_eq!(ready_sizes(&due), vec![2]);
        assert_eq!(due[0].formed_at_us, 0);
        assert!(b.next_flush_us().is_none());
    }

    #[test]
    fn poll_returns_oldest_leader_first() {
        let mut b: BatcherCore<u32, usize> = BatcherCore::new(8, 100, 16);
        b.push(2, 20, 50);
        b.push(1, 10, 0);
        let due = b.poll(1_000);
        assert_eq!(due.len(), 2);
        assert_eq!(due[0].key, 1, "oldest leader flushes first");
        assert_eq!(due[1].key, 2);
    }

    #[test]
    fn shed_on_overflow_hands_the_request_back() {
        let mut b: BatcherCore<u32, usize> = BatcherCore::new(8, 1_000, 2);
        assert!(matches!(b.push(1, 0, 0), Push::Queued));
        assert!(matches!(b.push(2, 1, 0), Push::Queued));
        match b.push(3, 99, 0) {
            Push::Shed(req, pending) => {
                assert_eq!(req, 99, "the shed request must come back intact");
                assert_eq!(pending, 2);
            }
            other => panic!("expected Shed, got {other:?}"),
        }
        // Draining a group frees budget again.
        assert_eq!(ready_sizes(&b.flush_all()), vec![1, 1]);
        assert!(matches!(b.push(3, 99, 0), Push::Queued));
    }

    #[test]
    fn flush_all_empties_every_group() {
        let mut b: BatcherCore<u32, usize> = BatcherCore::new(8, 1_000, 16);
        b.push(1, 0, 10);
        b.push(1, 1, 20);
        b.push(2, 2, 5);
        let all = b.flush_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].key, 2, "oldest leader first");
        assert_eq!(all[1].requests, vec![0, 1]);
        assert_eq!(b.pending(), 0);
        assert!(b.flush_all().is_empty());
    }

    #[test]
    fn max_wait_zero_makes_every_push_pollable_immediately() {
        let mut b: BatcherCore<u32, usize> = BatcherCore::new(8, 0, 16);
        b.push(1, 0, 42);
        let due = b.poll(42);
        assert_eq!(ready_sizes(&due), vec![1]);
    }
}

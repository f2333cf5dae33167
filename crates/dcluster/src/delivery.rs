//! In-order delivery of a stage's results as its tasks finish (DESIGN.md
//! §6, *Stage delivery*).

use std::sync::{Mutex, MutexGuard};

/// Hands a stage's task results to a sink in ascending task index, each
/// one as soon as its task and every earlier task have finished.
///
/// A finishing task whose result is the one due, while the sink is in its
/// place, takes the sink out and becomes the deliverer: it hands its
/// result over and then drains the run of parked results that follows,
/// with the lock released around every sink call. Any other finishing task
/// parks its result in its slot and returns to the queue at once. The
/// deliverer looks at the next slot again, under the lock, before it puts
/// the sink back, so no parked result is left behind: once every task has
/// finished, every result has been delivered.
pub(crate) struct Delivery<T, S> {
    state: Mutex<Slots<T, S>>,
}

struct Slots<T, S> {
    slots: Vec<Option<T>>,
    /// Index of the next result due.
    next: usize,
    /// `None` while a thread is delivering. A panicking sink call never
    /// puts it back, so nothing delivers again and the pool re-raises the
    /// panic when the batch ends.
    sink: Option<S>,
    /// Results parked now, and the most ever parked at once.
    parked: usize,
    peak: usize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<T, S: FnMut(usize, T)> Delivery<T, S> {
    pub(crate) fn new(tasks: usize, sink: S) -> Self {
        Delivery {
            state: Mutex::new(Slots {
                slots: (0..tasks).map(|_| None).collect(),
                next: 0,
                sink: Some(sink),
                parked: 0,
                peak: 0,
            }),
        }
    }

    /// Takes task `at`'s result: delivers it and whatever it unblocks when
    /// it is due and nobody else is delivering, parks it otherwise.
    pub(crate) fn deposit(&self, mut at: usize, mut value: T) {
        let mut st = lock(&self.state);
        let due = if at == st.next { st.sink.take() } else { None };
        let Some(mut sink) = due else {
            st.slots[at] = Some(value);
            st.parked += 1;
            st.peak = st.peak.max(st.parked);
            return;
        };
        loop {
            st.next = at + 1;
            drop(st);
            sink(at, value);
            st = lock(&self.state);
            at = st.next;
            match st.slots.get_mut(at).and_then(Option::take) {
                Some(parked) => {
                    st.parked -= 1;
                    value = parked;
                }
                None => {
                    st.sink = Some(sink);
                    return;
                }
            }
        }
    }

    /// The most results that were ever parked at once, waiting for an
    /// earlier task or for the deliverer. Call after every task has
    /// deposited.
    pub(crate) fn finish(self) -> usize {
        let st = self.state.into_inner().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(
            st.next,
            st.slots.len(),
            "a deposited result was never delivered"
        );
        st.peak
    }
}

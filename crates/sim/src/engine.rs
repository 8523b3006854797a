//! Generic simulation driver.
//!
//! A simulation is a state machine that consumes timestamped events and
//! schedules new ones. The driver owns the [`EventQueue`] and hands the
//! model a [`Scheduler`] handle so the model cannot accidentally rewind
//! the clock or observe heap internals.

use crate::event::EventQueue;
use crate::time::SimTime;

/// Handle through which a simulation model schedules future events.
pub struct Scheduler<'a, E> {
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// Schedule `event` at an absolute instant (clamped to now).
    pub fn at(&mut self, time: SimTime, event: E) {
        self.queue.schedule(time, event);
    }
}

/// A discrete-event simulation model.
pub trait Simulation {
    /// The event alphabet of this model.
    type Event;

    /// Handle one event at simulated time `now`, scheduling follow-ups
    /// through `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);

    /// Called by [`run`] before delivering each event; returning `false`
    /// stops the simulation (e.g. a time horizon was reached). The default
    /// never stops early.
    fn keep_running(&self, _now: SimTime) -> bool {
        true
    }
}

/// Outcome of [`run`]: why the simulation stopped and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// The simulated time at which the run ended.
    pub end_time: SimTime,
    /// Total events delivered.
    pub events_handled: u64,
    /// True if the event queue drained; false if [`Simulation::keep_running`]
    /// stopped the run or the event budget was exhausted.
    pub drained: bool,
}

/// Drive `model` until the queue drains, `keep_running` returns false, or
/// `max_events` events have been delivered (a safety valve against
/// non-terminating models; pass `u64::MAX` for no limit).
pub fn run<S: Simulation>(
    model: &mut S,
    queue: &mut EventQueue<S::Event>,
    max_events: u64,
) -> RunOutcome {
    let mut handled = 0u64;
    while handled < max_events {
        let Some(next_time) = queue.peek_time() else {
            return RunOutcome {
                end_time: queue.now(),
                events_handled: handled,
                drained: true,
            };
        };
        if !model.keep_running(next_time) {
            return RunOutcome {
                end_time: queue.now(),
                events_handled: handled,
                drained: false,
            };
        }
        let (now, event) = queue.pop().expect("peeked event must pop");
        let mut sched = Scheduler { queue };
        model.handle(now, event, &mut sched);
        handled += 1;
    }
    RunOutcome {
        end_time: queue.now(),
        events_handled: handled,
        drained: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A model that counts down: each event schedules the next until zero.
    struct Countdown {
        remaining: u32,
        fired_at: Vec<SimTime>,
        horizon: SimTime,
    }

    impl Simulation for Countdown {
        type Event = ();

        fn handle(&mut self, now: SimTime, _e: (), sched: &mut Scheduler<'_, ()>) {
            self.fired_at.push(now);
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.at(now + SimDuration::from_secs(1), ());
            }
        }

        fn keep_running(&self, now: SimTime) -> bool {
            now <= self.horizon
        }
    }

    #[test]
    fn runs_to_drain() {
        let mut model = Countdown {
            remaining: 5,
            fired_at: vec![],
            horizon: SimTime::MAX,
        };
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        let out = run(&mut model, &mut q, u64::MAX);
        assert!(out.drained);
        assert_eq!(out.events_handled, 6);
        assert_eq!(model.fired_at.len(), 6);
        assert_eq!(out.end_time, SimTime::from_secs(5));
    }

    #[test]
    fn horizon_stops_early() {
        let mut model = Countdown {
            remaining: 1000,
            fired_at: vec![],
            horizon: SimTime::from_secs(3),
        };
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        let out = run(&mut model, &mut q, u64::MAX);
        assert!(!out.drained);
        // Events at t=0,1,2,3 are delivered; the one at t=4 is beyond.
        assert_eq!(out.events_handled, 4);
    }

    #[test]
    fn event_budget_stops_runaway_models() {
        let mut model = Countdown {
            remaining: u32::MAX,
            fired_at: vec![],
            horizon: SimTime::MAX,
        };
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        let out = run(&mut model, &mut q, 10);
        assert!(!out.drained);
        assert_eq!(out.events_handled, 10);
    }

    #[test]
    fn scheduler_now_matches_delivery_time() {
        struct Check;
        impl Simulation for Check {
            type Event = SimTime;
            fn handle(&mut self, now: SimTime, expected: SimTime, _s: &mut Scheduler<'_, SimTime>) {
                assert_eq!(now, expected);
            }
        }
        let mut q = EventQueue::new();
        for s in [4u64, 1, 9, 2] {
            q.schedule(SimTime::from_secs(s), SimTime::from_secs(s));
        }
        let out = run(&mut Check, &mut q, u64::MAX);
        assert_eq!(out.events_handled, 4);
    }
}

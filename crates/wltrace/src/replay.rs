//! Replay: drive any experiment from a recorded trace.
//!
//! [`TraceReplayer`] implements `WorkloadSource` over one [`Stream`] of a
//! [`WorkloadTrace`]: `rate_at` returns the recorded bits on an exact hit
//! and the last recorded rate before `t` otherwise (piecewise-constant),
//! so replays are exact where the recording queried and sensible in
//! between. A replay is a demand curve, not a sequence of counts: the
//! consumer draws its arrivals from the replayed rate through its own
//! seed lineage, so a replay at the recording's seed reproduces the
//! recorded run and a replay at any other seed equals the generator at
//! that seed.
//!
//! [`TraceHandout`] hands streams to consumers the way the recorder saw
//! sources get created: each `source()` call yields an unbound replayer
//! that binds to a concrete stream on its first time-keyed query —
//! preferring an unclaimed stream whose first recorded instant matches
//! the query (so parallel arms with distinct start days find their own
//! stream regardless of creation races), then falling back to creation
//! order.

use std::sync::{Arc, Mutex, OnceLock};

use elc_elearn::source::WorkloadSource;
use elc_simcore::time::SimTime;
use elc_trace::{Field, Level};

use crate::trace::{RateSample, Stream, TraceError, WorkloadTrace};

#[derive(Debug, Default)]
struct HandoutState {
    claimed: Vec<bool>,
    cycle: usize,
}

/// Hands a trace's streams to replay consumers, one per
/// [`source`](TraceHandout::source) call. Clones share claim state; a
/// fresh handout (e.g. per runner replication) restarts the hand-out.
#[derive(Debug, Clone)]
pub struct TraceHandout {
    trace: Arc<WorkloadTrace>,
    state: Arc<Mutex<HandoutState>>,
}

impl TraceHandout {
    /// A handout over `trace`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Empty`] when the trace has no streams.
    pub fn new(trace: Arc<WorkloadTrace>) -> Result<Self, TraceError> {
        if trace.streams.is_empty() {
            return Err(TraceError::Empty);
        }
        let state = HandoutState {
            claimed: vec![false; trace.streams.len()],
            cycle: 0,
        };
        Ok(TraceHandout {
            trace,
            state: Arc::new(Mutex::new(state)),
        })
    }

    /// The shared trace.
    #[must_use]
    pub fn trace(&self) -> &Arc<WorkloadTrace> {
        &self.trace
    }

    /// The next replay source (unbound until its first time-keyed query).
    #[must_use]
    pub fn source(&self) -> TraceReplayer {
        TraceReplayer {
            trace: self.trace.clone(),
            students: self.trace.students,
            peak_rate_bits: self.trace.peak_rate_bits,
            handout: Some(self.clone()),
            bound: Arc::new(OnceLock::new()),
        }
    }

    /// Forgets all claims, so the next consumers start from stream 0
    /// again (used when a scenario is reseeded for a new replication).
    pub fn reset(&self) {
        let mut state = self.state.lock().expect("handout lock");
        state.claimed.iter_mut().for_each(|c| *c = false);
        state.cycle = 0;
    }

    fn bind(&self, t_ns: u64) -> usize {
        let streams = &self.trace.streams;
        let mut state = self.state.lock().expect("handout lock");
        // 1. An unclaimed stream that starts exactly at the query instant
        //    — parallel arms find their own stream whatever the creation
        //    race did.
        if let Some(i) =
            (0..streams.len()).find(|&i| !state.claimed[i] && streams[i].first_t_ns() == Some(t_ns))
        {
            state.claimed[i] = true;
            return i;
        }
        // 2. A claimed stream with that exact start: repeated runs over
        //    one handout still bind by time.
        if let Some(i) = (0..streams.len()).find(|&i| streams[i].first_t_ns() == Some(t_ns)) {
            return i;
        }
        // 3. Creation order: the lowest unclaimed stream.
        if let Some(i) = (0..streams.len()).find(|&i| !state.claimed[i]) {
            state.claimed[i] = true;
            return i;
        }
        // 4. All claimed: cycle.
        let i = state.cycle % streams.len();
        state.cycle += 1;
        i
    }
}

/// Replays one recorded demand stream through the `WorkloadSource` trait.
#[derive(Debug, Clone)]
pub struct TraceReplayer {
    trace: Arc<WorkloadTrace>,
    students: u32,
    peak_rate_bits: u64,
    handout: Option<TraceHandout>,
    bound: Arc<OnceLock<usize>>,
}

impl TraceReplayer {
    /// A replayer bound to stream `index` (taken modulo the stream
    /// count).
    ///
    /// # Errors
    ///
    /// [`TraceError::Empty`] when the trace has no streams.
    pub fn stream(trace: Arc<WorkloadTrace>, index: usize) -> Result<Self, TraceError> {
        if trace.streams.is_empty() {
            return Err(TraceError::Empty);
        }
        let bound = OnceLock::new();
        let _ = bound.set(index % trace.streams.len());
        Ok(TraceReplayer {
            students: trace.students,
            peak_rate_bits: trace.peak_rate_bits,
            handout: None,
            bound: Arc::new(bound),
            trace,
        })
    }

    fn stream_for(&self, t_ns: u64) -> &Stream {
        let idx = *self.bound.get_or_init(|| {
            let idx = match &self.handout {
                Some(handout) => handout.bind(t_ns),
                None => 0,
            };
            if elc_trace::enabled(crate::TRACE_TARGET, Level::Info) {
                elc_trace::instant(
                    t_ns,
                    crate::TRACE_TARGET,
                    "replay.bind",
                    Level::Info,
                    &[Field::u64("stream", idx as u64)],
                );
            }
            idx
        });
        &self.trace.streams[idx]
    }

    fn lookup_rate(stream: &Stream, t_ns: u64) -> f64 {
        let idx = stream.rates.partition_point(|r| r.t_ns <= t_ns);
        if idx == 0 {
            return 0.0;
        }
        let RateSample { rate_bits, .. } = stream.rates[idx - 1];
        f64::from_bits(rate_bits)
    }
}

impl WorkloadSource for TraceReplayer {
    fn students(&self) -> u32 {
        self.students
    }

    fn peak_rate(&self) -> f64 {
        f64::from_bits(self.peak_rate_bits)
    }

    fn rate_at(&self, t: SimTime) -> f64 {
        Self::lookup_rate(self.stream_for(t.as_nanos()), t.as_nanos())
    }

    fn clone_source(&self) -> Box<dyn WorkloadSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecorder;
    use elc_elearn::calendar::AcademicCalendar;
    use elc_elearn::workload::WorkloadModel;
    use elc_simcore::time::SimDuration;

    fn exam_noon() -> SimTime {
        SimTime::from_secs(15 * 7 * 86_400 + 12 * 3_600)
    }

    fn recorded_trace(students: u32) -> (WorkloadModel, Arc<WorkloadTrace>) {
        let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
        let model = WorkloadModel::builder(students, cal).build().unwrap();
        let recorder = TraceRecorder::new();
        let wrapped = recorder.wrap(Box::new(model.clone()));
        for i in 0..240u64 {
            let _ = wrapped.rate_at(exam_noon() + SimDuration::from_mins(i));
        }
        (model, Arc::new(recorder.finish().unwrap()))
    }

    #[test]
    fn replay_returns_the_recorded_rates_bit_for_bit() {
        let (model, trace) = recorded_trace(10_000);
        let replay = TraceReplayer::stream(trace, 0).unwrap();
        for i in 0..240u64 {
            let t = exam_noon() + SimDuration::from_mins(i);
            assert_eq!(
                replay.rate_at(t).to_bits(),
                model.rate_at(t).to_bits(),
                "tick {i}"
            );
        }
        assert_eq!(replay.students(), model.students());
        assert_eq!(replay.peak_rate().to_bits(), model.peak_rate().to_bits());
    }

    #[test]
    fn off_trace_queries_answer_the_rate_in_force() {
        let (model, trace) = recorded_trace(10_000);
        let replay = TraceReplayer::stream(trace, 0).unwrap();
        let t = exam_noon() + SimDuration::from_mins(50);
        // Between recorded samples: piecewise-constant floor.
        let between = t + SimDuration::from_secs(30);
        assert_eq!(
            replay.rate_at(between).to_bits(),
            model.rate_at(t).to_bits()
        );
        // After the last sample its rate stays in force.
        let last = exam_noon() + SimDuration::from_mins(239);
        assert_eq!(
            replay.rate_at(last + SimDuration::from_hours(5)).to_bits(),
            model.rate_at(last).to_bits()
        );
        // Before the first sample: quiet.
        assert_eq!(replay.rate_at(SimTime::ZERO), 0.0);
    }

    #[test]
    fn handout_binds_streams_by_first_query_time_then_creation_order() {
        // Record two sources with distinct start instants and rates: a
        // teaching-week midnight and an exam-week one.
        let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
        let model = WorkloadModel::builder(4_000, cal).build().unwrap();
        let recorder = TraceRecorder::new();
        let early = recorder.wrap(Box::new(model.clone()));
        let late = recorder.wrap(Box::new(model));
        let t_early = SimTime::from_secs(5 * 7 * 86_400);
        let t_late = SimTime::from_secs(15 * 7 * 86_400);
        let r_early = early.rate_at(t_early);
        let r_late = late.rate_at(t_late);
        assert_ne!(r_early, r_late, "the streams must be told apart");
        let trace = Arc::new(recorder.finish().unwrap());

        let handout = TraceHandout::new(trace.clone()).unwrap();
        // Consumers created in the opposite order still find their stream
        // because first-query instants disambiguate.
        let b = handout.source();
        let a = handout.source();
        assert_eq!(b.rate_at(t_late), r_late);
        assert_eq!(a.rate_at(t_early), r_early);

        // After reset the hand-out starts over.
        handout.reset();
        let c = handout.source();
        assert_eq!(c.rate_at(t_early), r_early);

        // Exhausting the streams cycles in creation order.
        let more: Vec<_> = (0..3).map(|_| handout.source()).collect();
        let probe = SimTime::from_secs(86_400);
        for source in &more {
            let _ = source.rate_at(probe);
        }
        assert!(TraceHandout::new(Arc::new(WorkloadTrace::empty(1, 0.0).clone())).is_err());
    }
}

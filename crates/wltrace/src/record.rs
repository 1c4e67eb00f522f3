//! Recording: tee a generator-driven run into a trace.
//!
//! [`TraceRecorder::wrap`] interposes a recording shim in front of any
//! `WorkloadSource`. The shim delegates every query to the inner source —
//! a source never touches the caller's RNG, so recording cannot perturb
//! the run being recorded — and logs each answered rate as raw f64 bits.
//! Each wrapped source gets its own [`Stream`], in creation order.
//!
//! Record with a single shard (`--shards 1`): parallel arms create their
//! sources in a racy order, and the stream order in the file is the
//! replayer's hand-out order. (The replayer also time-matches streams on
//! first query, which rescues arms whose demand starts at distinct
//! instants — but creation order is the contract.)

use std::sync::{Arc, Mutex};

use elc_elearn::source::WorkloadSource;
use elc_simcore::time::SimTime;
use elc_trace::{Field, Level};

use crate::trace::{dedup_stream, RateSample, Stream, TraceError, WorkloadTrace};

#[derive(Debug, Default)]
struct RecorderInner {
    header: Option<(u32, u64)>,
    conflict: Option<(u32, u32)>,
    streams: Vec<Stream>,
}

/// Collects the demand streams of one run; cheap to clone (all clones
/// share the same buffer).
///
/// # Examples
///
/// ```
/// use elc_elearn::calendar::AcademicCalendar;
/// use elc_elearn::source::WorkloadSource;
/// use elc_elearn::workload::WorkloadModel;
/// use elc_simcore::{SimDuration, SimTime};
/// use elc_wltrace::TraceRecorder;
///
/// let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
/// let model = WorkloadModel::builder(1_000, cal).build().unwrap();
/// let recorder = TraceRecorder::new();
/// let source = recorder.wrap(Box::new(model));
/// let t = cal.exams_start() + SimDuration::from_hours(20);
/// let rate = source.rate_at(t);
/// let trace = recorder.finish().unwrap();
/// assert_eq!(trace.streams[0].rates[0].rate().to_bits(), rate.to_bits());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl TraceRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Wraps `source` in a recording shim that opens the next stream.
    #[must_use]
    pub fn wrap(&self, source: Box<dyn WorkloadSource>) -> Box<dyn WorkloadSource> {
        let students = source.students();
        let peak_bits = source.peak_rate().to_bits();
        let stream = {
            let mut inner = self.inner.lock().expect("recorder lock");
            match inner.header {
                None => inner.header = Some((students, peak_bits)),
                Some((s, p)) => {
                    if (s, p) != (students, peak_bits) && inner.conflict.is_none() {
                        inner.conflict = Some((s, students));
                    }
                }
            }
            inner.streams.push(Stream::default());
            inner.streams.len() - 1
        };
        if elc_trace::enabled(crate::TRACE_TARGET, Level::Info) {
            elc_trace::instant(
                0,
                crate::TRACE_TARGET,
                "record.stream",
                Level::Info,
                &[
                    Field::u64("stream", stream as u64),
                    Field::u64("students", u64::from(students)),
                ],
            );
        }
        Box::new(RecordingSource {
            recorder: self.clone(),
            stream,
            source,
        })
    }

    /// Snapshots the recording into a validated trace. The recorder stays
    /// usable; wrapped sources keep appending.
    ///
    /// # Errors
    ///
    /// [`TraceError::Empty`] when nothing was recorded;
    /// [`TraceError::HeaderConflict`] when wrapped sources came from
    /// different institutions.
    pub fn finish(&self) -> Result<WorkloadTrace, TraceError> {
        let inner = self.inner.lock().expect("recorder lock");
        if let Some((first, other)) = inner.conflict {
            return Err(TraceError::HeaderConflict { first, other });
        }
        let Some((students, peak_rate_bits)) = inner.header else {
            return Err(TraceError::Empty);
        };
        let mut trace = WorkloadTrace {
            students,
            peak_rate_bits,
            streams: inner.streams.clone(),
        };
        drop(inner);
        for stream in &mut trace.streams {
            stream.rates.sort_by_key(|r| r.t_ns);
            dedup_stream(stream);
        }
        // Empty streams (sources wrapped but never queried) are kept so
        // stream indices still mirror source-creation order on replay.
        if trace.streams.iter().all(|s| s.first_t_ns().is_none()) {
            return Err(TraceError::Empty);
        }
        trace.validate()?;
        Ok(trace)
    }
}

/// The shim: delegates to the wrapped source and logs every answer.
#[derive(Debug)]
struct RecordingSource {
    recorder: TraceRecorder,
    stream: usize,
    source: Box<dyn WorkloadSource>,
}

impl WorkloadSource for RecordingSource {
    fn students(&self) -> u32 {
        self.source.students()
    }

    fn peak_rate(&self) -> f64 {
        self.source.peak_rate()
    }

    fn rate_at(&self, t: SimTime) -> f64 {
        let rate = self.source.rate_at(t);
        let mut inner = self.recorder.inner.lock().expect("recorder lock");
        inner.streams[self.stream].rates.push(RateSample {
            t_ns: t.as_nanos(),
            rate_bits: rate.to_bits(),
        });
        rate
    }

    // `mean_rate` intentionally uses the trait default: it routes through
    // `rate_at` above, so its queries are recorded.

    fn clone_source(&self) -> Box<dyn WorkloadSource> {
        // A cloned consumer is a new demand stream.
        self.recorder.wrap(self.source.clone_source())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elc_elearn::calendar::AcademicCalendar;
    use elc_elearn::workload::WorkloadModel;
    use elc_simcore::time::SimDuration;

    fn model(students: u32) -> WorkloadModel {
        WorkloadModel::builder(students, AcademicCalendar::standard_semester(SimTime::ZERO))
            .build()
            .unwrap()
    }

    #[test]
    fn recording_does_not_perturb_the_run() {
        let recorder = TraceRecorder::new();
        let wrapped = recorder.wrap(Box::new(model(10_000)));
        let bare = model(10_000);
        let from = SimTime::from_secs(5 * 7 * 86_400);
        for i in 0..48u64 {
            let t = from + SimDuration::from_secs(i * 1_800);
            assert_eq!(wrapped.rate_at(t).to_bits(), bare.rate_at(t).to_bits());
        }
        let to = from + SimDuration::from_days(1);
        let hour = SimDuration::from_hours(1);
        assert_eq!(
            wrapped.mean_rate(from, to, hour).to_bits(),
            bare.mean_rate(from, to, hour).to_bits()
        );
        assert_eq!(wrapped.peak_rate().to_bits(), bare.peak_rate().to_bits());
        assert_eq!(wrapped.students(), bare.students());
        let trace = recorder.finish().unwrap();
        // `mean_rate` queries are recorded too; the 24 hourly instants
        // fall on half-hour samples already taken.
        assert_eq!(trace.streams[0].rates.len(), 48);
    }

    #[test]
    fn finish_snapshots_sorted_streams() {
        let recorder = TraceRecorder::new();
        let wrapped = recorder.wrap(Box::new(model(2_000)));
        // Query out of order, one instant twice; finish() sorts and
        // keeps one sample per instant.
        for t in [7_200u64, 3_600, 10_800, 3_600] {
            let _ = wrapped.rate_at(SimTime::from_secs(5 * 7 * 86_400 + t));
        }
        let trace = recorder.finish().unwrap();
        assert_eq!(trace.students, 2_000);
        assert_eq!(trace.streams.len(), 1);
        let s = &trace.streams[0];
        assert_eq!(s.rates.len(), 3);
        assert!(s.rates.windows(2).all(|w| w[0].t_ns < w[1].t_ns));
        assert_eq!(trace.validate(), Ok(()));
    }

    #[test]
    fn header_conflicts_and_empty_recorders_error() {
        let recorder = TraceRecorder::new();
        assert_eq!(recorder.finish(), Err(TraceError::Empty));
        let a = recorder.wrap(Box::new(model(1_000)));
        let _ = a.rate_at(SimTime::from_secs(86_400 * 40));
        let _ = recorder.wrap(Box::new(model(2_000)));
        assert_eq!(
            recorder.finish(),
            Err(TraceError::HeaderConflict {
                first: 1_000,
                other: 2_000
            })
        );
    }

    #[test]
    fn unqueried_recorder_is_empty() {
        let recorder = TraceRecorder::new();
        let _source = recorder.wrap(Box::new(model(1_000)));
        assert_eq!(recorder.finish(), Err(TraceError::Empty));
    }
}

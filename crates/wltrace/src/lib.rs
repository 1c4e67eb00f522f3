//! # elc-wltrace — workload trace record, replay and morphing
//!
//! The paper's core question — which cloud deployment model serves an
//! e-learning system best — demands apples-to-apples comparisons: the same
//! demand curve driving several deployment models. A trace is that curve.
//! It records the offered rate a
//! [`WorkloadModel`](elc_elearn::workload::WorkloadModel) (or an external
//! dataset) answered at each queried instant; consumers draw their own
//! arrivals from it, exactly as they do from the generator.
//!
//! * [`trace`] — the in-memory [`WorkloadTrace`] model and the morphing
//!   combinators ([`time_stretch`](WorkloadTrace::time_stretch),
//!   [`amplitude_scale`](WorkloadTrace::amplitude_scale),
//!   [`clip`](WorkloadTrace::clip)) plus the [`MorphSpec`] `--morph`
//!   parser,
//! * [`codec`] — the compact binary format (`ELCW` magic, version 2,
//!   delta-encoded rate samples),
//! * [`csvio`] — CSV interchange for external datasets,
//! * [`record`] — [`TraceRecorder`], a tee that records any
//!   generator-driven run without perturbing it,
//! * [`replay`] — [`TraceReplayer`] and [`TraceHandout`], which drive any
//!   experiment from a trace; the replayed rates are the recorded bits.
//!
//! Replay events are emitted under the `wltrace` trace target.
//!
//! # Record → morph → replay
//!
//! ```
//! use std::sync::Arc;
//! use elc_elearn::calendar::AcademicCalendar;
//! use elc_elearn::source::WorkloadSource;
//! use elc_elearn::workload::WorkloadModel;
//! use elc_simcore::{SimDuration, SimTime};
//! use elc_wltrace::{MorphSpec, TraceRecorder, TraceReplayer};
//!
//! // Record the rate curve of a generator-driven exam evening.
//! let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
//! let recorder = TraceRecorder::new();
//! let source = recorder.wrap(Box::new(WorkloadModel::builder(1_000, cal).build().unwrap()));
//! let start = cal.exams_start() + SimDuration::from_hours(19);
//! for i in 0..60 {
//!     source.rate_at(start + SimDuration::from_mins(i));
//! }
//! let trace = recorder.finish().unwrap();
//!
//! // Scale the recorded thousand students to forty thousand and replay.
//! let big = MorphSpec::parse("scale=40").unwrap().apply(&trace).unwrap();
//! let replay = TraceReplayer::stream(Arc::new(big), 0).unwrap();
//! assert_eq!(replay.students(), 40_000);
//! assert_eq!(replay.rate_at(start), 40.0 * source.rate_at(start));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Trace target every `elc-wltrace` event is recorded under.
pub(crate) const TRACE_TARGET: &str = "wltrace";

pub mod codec;
pub mod csvio;
pub mod record;
pub mod replay;
pub mod trace;

pub use record::TraceRecorder;
pub use replay::{TraceHandout, TraceReplayer};
pub use trace::{Morph, MorphSpec, RateSample, Stream, TraceError, WorkloadTrace};

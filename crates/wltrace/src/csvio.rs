//! CSV interchange for workload traces.
//!
//! The binary codec is the fidelity format; CSV exists so external
//! datasets (Azure/Huawei-style VM or request traces, LMS access logs)
//! can be mapped onto the simulator without writing Rust. Schema:
//!
//! ```text
//! #students=25000            optional pragmas, before the header
//! #peak_rate=2600
//! stream,time_ns,rate
//! 0,3600000000000,12.5       rate in force from this instant (rps)
//! ```
//!
//! Rates round-trip exactly: floats are printed with Rust's
//! shortest-round-trip formatting. When no `#peak_rate` pragma is given,
//! the peak is the maximum rate seen. Rows may appear in any order —
//! streams are sorted while building the trace, and of two rows at one
//! instant the later one wins.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::trace::{dedup_stream, RateSample, Stream, TraceError, WorkloadTrace};

/// Default cohort when a CSV has no `#students=` pragma.
pub const DEFAULT_STUDENTS: u32 = 1_000;

/// The column header every CSV trace carries.
const HEADER: &str = "stream,time_ns,rate";

/// Renders a trace to the CSV schema above.
#[must_use]
pub fn to_csv(trace: &WorkloadTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "#students={}", trace.students);
    let _ = writeln!(out, "#peak_rate={}", trace.peak_rate());
    let _ = writeln!(out, "{HEADER}");
    for (i, stream) in trace.streams.iter().enumerate() {
        for r in &stream.rates {
            let _ = writeln!(out, "{i},{},{}", r.t_ns, r.rate());
        }
    }
    out
}

/// Parses the CSV schema into a validated trace.
///
/// # Errors
///
/// Returns [`TraceError::Malformed`] on schema violations and
/// [`TraceError::Empty`] when no rate rows survive.
pub fn from_csv(text: &str) -> Result<WorkloadTrace, TraceError> {
    let mut students: Option<u32> = None;
    let mut peak_rate: Option<f64> = None;
    // BTreeMap keeps stream order stable.
    let mut streams: BTreeMap<u64, Stream> = BTreeMap::new();

    let mut saw_header = false;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        let bad = |what: &str| TraceError::Malformed(format!("line {}: {what}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(pragma) = line.strip_prefix('#') {
            if let Some(v) = pragma.strip_prefix("students=") {
                students = Some(v.trim().parse().map_err(|_| bad("bad #students"))?);
            } else if let Some(v) = pragma.strip_prefix("peak_rate=") {
                peak_rate = Some(v.trim().parse().map_err(|_| bad("bad #peak_rate"))?);
            }
            // Unknown pragmas are comments.
            continue;
        }
        if !saw_header {
            if line != HEADER {
                return Err(bad(&format!("expected header {HEADER}")));
            }
            saw_header = true;
            continue;
        }
        let mut cols = line.split(',').map(str::trim);
        let (Some(stream), Some(t_ns), Some(rate), None) =
            (cols.next(), cols.next(), cols.next(), cols.next())
        else {
            return Err(bad("expected 3 columns"));
        };
        let stream: u64 = stream
            .parse()
            .map_err(|_| bad(&format!("bad stream {stream:?}")))?;
        let t_ns: u64 = t_ns
            .parse()
            .map_err(|_| bad(&format!("bad time_ns {t_ns:?}")))?;
        let rate: f64 = rate
            .parse()
            .map_err(|_| bad(&format!("bad rate {rate:?}")))?;
        if !rate.is_finite() || rate < 0.0 {
            return Err(bad("rate must be non-negative"));
        }
        streams.entry(stream).or_default().rates.push(RateSample {
            t_ns,
            rate_bits: rate.to_bits(),
        });
    }
    if streams.is_empty() {
        return Err(TraceError::Empty);
    }

    let mut trace = WorkloadTrace::empty(students.unwrap_or(DEFAULT_STUDENTS), 0.0);
    let mut max_rate = 0.0f64;
    for mut stream in streams.into_values() {
        stream.rates.sort_by_key(|r| r.t_ns);
        dedup_stream(&mut stream);
        for r in &stream.rates {
            max_rate = max_rate.max(r.rate());
        }
        trace.streams.push(stream);
    }
    trace.peak_rate_bits = peak_rate.unwrap_or(max_rate).to_bits();
    trace.validate()?;
    Ok(trace)
}

/// Writes the CSV form to `path`.
///
/// # Errors
///
/// Returns [`TraceError::Io`] with the path on failure.
pub fn write_file(trace: &WorkloadTrace, path: &Path) -> Result<(), TraceError> {
    std::fs::write(path, to_csv(trace))
        .map_err(|e| TraceError::Io(format!("write {}: {e}", path.display())))
}

/// Reads and parses a CSV trace from `path`.
///
/// # Errors
///
/// Returns [`TraceError::Io`] on read failure, or any parse error.
pub fn read_file(path: &Path) -> Result<WorkloadTrace, TraceError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| TraceError::Io(format!("read {}: {e}", path.display())))?;
    from_csv(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> WorkloadTrace {
        let mut t = WorkloadTrace::empty(2_000, 160.0);
        t.streams.push(Stream {
            rates: vec![
                RateSample {
                    t_ns: 1_000,
                    rate_bits: 12.125f64.to_bits(),
                },
                RateSample {
                    t_ns: 61_000,
                    rate_bits: 13.626_262f64.to_bits(),
                },
            ],
        });
        t
    }

    #[test]
    fn csv_round_trip_is_exact() {
        let t = trace();
        let csv = to_csv(&t);
        let back = from_csv(&csv).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn external_dataset_rows_sort_and_the_peak_defaults_to_the_max() {
        let csv = "\
#students=500
stream,time_ns,rate
1,5,7.5
0,2000000000,80
0,0,40
0,2000000000,60
";
        let t = from_csv(csv).unwrap();
        assert_eq!(t.students, 500);
        assert_eq!(t.streams.len(), 2);
        let s = &t.streams[0];
        assert_eq!(s.rates.len(), 2, "one rate per instant");
        assert_eq!((s.rates[0].t_ns, s.rates[0].rate()), (0, 40.0));
        assert_eq!(s.rates[1].rate(), 60.0, "the later row wins");
        assert_eq!(t.streams[1].rates[0].rate(), 7.5);
        assert_eq!(t.peak_rate(), 60.0);
    }

    #[test]
    fn rejects_bad_schema() {
        assert!(matches!(from_csv(""), Err(TraceError::Empty)));
        assert!(from_csv("bad,header\n").is_err());
        let hdr = "stream,time_ns,rate\n";
        assert!(from_csv(&format!("{hdr}0,0\n")).is_err());
        assert!(from_csv(&format!("{hdr}0,0,5,1\n")).is_err());
        assert!(from_csv(&format!("{hdr}0,x,5\n")).is_err());
        assert!(from_csv(&format!("{hdr}0,0,-3\n")).is_err());
        assert!(from_csv(&format!("{hdr}0,0,inf\n")).is_err());
        assert!(from_csv("#students=zero\nstream,time_ns,rate\n").is_err());
        // The previous five-column schema is refused, not misread.
        let old = "stream,time_ns,slot_ns,kind,value\n0,0,60000000000,*,10\n";
        assert!(matches!(from_csv(old), Err(TraceError::Malformed(_))));
    }

    #[test]
    fn csv_file_round_trip() {
        let t = trace();
        let dir = std::env::temp_dir().join("elc-wltrace-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        write_file(&t, &path).unwrap();
        assert_eq!(read_file(&path).unwrap(), t);
        assert!(matches!(
            read_file(&dir.join("missing.csv")),
            Err(TraceError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Property tests for the trace codecs, the morph combinators and the
//! `--morph` parser, driven by a seed-derived case generator (the
//! workspace takes no crates.io dependencies, so this mirrors the in-file
//! generator idiom of the workspace's `tests/proptests.rs`): inputs are
//! random but fully deterministic, and a failing case reproduces from the
//! property's fixed seed and case index.

use elc_simcore::rng::SimRng;
use elc_simcore::time::SimDuration;
use elc_wltrace::codec;
use elc_wltrace::csvio;
use elc_wltrace::{MorphSpec, RateSample, Stream, WorkloadTrace};

/// Runs `f` against `n` independently seeded generators.
fn cases(n: u64, seed: u64, mut f: impl FnMut(&mut SimRng)) {
    let root = SimRng::seed(seed).derive("wltrace-proptest");
    for i in 0..n {
        f(&mut root.derive_u64(i));
    }
}

/// Picks one of `items`.
fn pick<'a>(rng: &mut SimRng, items: &[&'a str]) -> &'a str {
    items[rng.range_u64(0, items.len() as u64 - 1) as usize]
}

/// A random but structurally valid trace: sorted sample times, 1–4
/// streams of 0–60 rate samples each.
fn arb_trace(rng: &mut SimRng) -> WorkloadTrace {
    let mut trace = WorkloadTrace::empty(
        rng.range_u64(1, 200_000) as u32,
        rng.range_f64(0.1, 50_000.0),
    );
    let n_streams = rng.range_u64(1, 4);
    for _ in 0..n_streams {
        let mut stream = Stream::default();
        let mut t = rng.range_u64(0, 1 << 40);
        for _ in 0..rng.range_u64(0, 60) {
            t += rng.range_u64(1, 1 << 34);
            stream.rates.push(RateSample {
                t_ns: t,
                rate_bits: rng.range_f64(0.0, 10_000.0).to_bits(),
            });
        }
        trace.streams.push(stream);
    }
    assert_eq!(trace.validate(), Ok(()));
    trace
}

/// The demand a stream carries between its first and last sample: the
/// piecewise-constant rate integrated over time (requests).
fn mass(stream: &Stream) -> f64 {
    stream
        .rates
        .windows(2)
        .map(|w| w[0].rate() * (w[1].t_ns - w[0].t_ns) as f64 * 1e-9)
        .sum()
}

#[test]
fn binary_codec_round_trips_arbitrary_traces() {
    cases(64, 0x71AC_E001, |rng| {
        let trace = arb_trace(rng);
        let bytes = codec::to_bytes(&trace);
        let back = codec::from_bytes(&bytes).expect("encoded trace must decode");
        assert_eq!(back, trace, "binary round trip must be lossless");
    });
}

#[test]
fn binary_decoder_never_panics_on_corruption() {
    cases(48, 0x71AC_E002, |rng| {
        let trace = arb_trace(rng);
        let mut bytes = codec::to_bytes(&trace);
        // Flip a handful of bytes anywhere in the payload; decode must
        // return (Ok or Err), never panic or allocate absurdly.
        for _ in 0..8 {
            let i = rng.range_u64(0, bytes.len() as u64 - 1) as usize;
            bytes[i] ^= rng.range_u64(1, 255) as u8;
        }
        let _ = codec::from_bytes(&bytes);
    });
}

#[test]
fn stretch_then_scale_composes_and_preserves_demand() {
    cases(48, 0x71AC_E003, |rng| {
        let trace = arb_trace(rng);
        let stretch = rng.range_f64(0.25, 4.0);
        let scale = rng.range_f64(0.5, 64.0);
        let a = trace
            .time_stretch(stretch)
            .unwrap()
            .amplitude_scale(scale)
            .unwrap();
        let b = trace
            .amplitude_scale(scale)
            .unwrap()
            .time_stretch(stretch)
            .unwrap();
        // The two orders agree on structure: same stream shapes, same
        // instants, the same rates up to rounding.
        assert_eq!(a.streams.len(), b.streams.len());
        for (sa, sb) in a.streams.iter().zip(&b.streams) {
            assert_eq!(sa.rates.len(), sb.rates.len());
            for (x, y) in sa.rates.iter().zip(&sb.rates) {
                assert_eq!(x.t_ns, y.t_ns);
                let (rx, ry) = (x.rate(), y.rate());
                assert!(
                    (rx - ry).abs() <= 1e-9 * rx.abs().max(1.0),
                    "rate scaling commutes up to rounding: {rx} vs {ry}"
                );
            }
        }
        // Stretch keeps the demand each stream carries: rates thin by the
        // factor the spans grow by.
        let stretched = trace.time_stretch(stretch).unwrap();
        for (before, after) in trace.streams.iter().zip(&stretched.streams) {
            let (m0, m1) = (mass(before), mass(after));
            assert!(
                (m0 - m1).abs() <= 1e-6 * m0.max(1.0),
                "stretch moved demand: {m0} vs {m1}"
            );
        }
        // The morphed traces remain structurally valid.
        assert_eq!(a.validate(), Ok(()));
        assert_eq!(b.validate(), Ok(()));
    });
}

#[test]
fn clip_bounds_every_surviving_sample() {
    cases(48, 0x71AC_E004, |rng| {
        let trace = arb_trace(rng);
        let Some(start) = trace.start_ns() else {
            return;
        };
        let span = trace.end_ns().unwrap_or(start).saturating_sub(start);
        if span == 0 {
            return;
        }
        let from = rng.range_u64(0, span / 2);
        let to = rng.range_u64(from + 1, span + 1);
        let clipped = match trace.clip(SimDuration::from_nanos(from), SimDuration::from_nanos(to)) {
            Ok(c) => c,
            // An empty window is a legal outcome for sparse traces.
            Err(_) => return,
        };
        let lo = start + from;
        let hi = start + to;
        let recorded: Vec<u64> = trace
            .streams
            .iter()
            .flat_map(|s| s.rates.iter().map(|r| r.rate_bits))
            .collect();
        for stream in &clipped.streams {
            for r in &stream.rates {
                assert!(r.t_ns >= lo && r.t_ns < hi, "rate outside clip window");
                // Clipping never invents demand: every rate, the
                // re-anchored one included, is a recorded rate.
                assert!(recorded.contains(&r.rate_bits), "invented rate");
            }
        }
        assert_eq!(clipped.validate(), Ok(()));
    });
}

#[test]
fn morph_spec_round_trips_through_apply() {
    cases(32, 0x71AC_E005, |rng| {
        let trace = arb_trace(rng);
        let stretch = rng.range_f64(0.5, 2.0);
        let scale = rng.range_f64(1.0, 10.0);
        let spec = MorphSpec::parse(&format!("stretch={stretch},scale={scale}")).unwrap();
        let via_spec = spec.apply(&trace).unwrap();
        let by_hand = trace
            .time_stretch(stretch)
            .unwrap()
            .amplitude_scale(scale)
            .unwrap();
        assert_eq!(via_spec, by_hand, "spec application = manual pipeline");
    });
}

#[test]
fn csv_round_trips_arbitrary_traces() {
    cases(24, 0x71AC_E006, |rng| {
        let mut trace = arb_trace(rng);
        // CSV has no row for a stream that never answered a query.
        trace.streams.retain(|s| !s.rates.is_empty());
        if trace.streams.is_empty() {
            return;
        }
        let csv = csvio::to_csv(&trace);
        let back = csvio::from_csv(&csv).expect("exported csv must parse");
        assert_eq!(back, trace, "csv round trip must be lossless");
    });
}

#[test]
fn csv_parser_errors_on_corruption_and_never_panics() {
    const ALPHABET: [&str; 16] = [
        "0",
        "7",
        ",",
        ".",
        "-",
        "e",
        "#",
        "=",
        "\n",
        " ",
        "x",
        "inf",
        "NaN",
        "students",
        "peak_rate",
        "stream,time_ns,rate",
    ];
    let mut parsed = 0;
    cases(400, 0x71AC_E007, |rng| {
        let trace = arb_trace(rng);
        let mut text = csvio::to_csv(&trace);
        for _ in 0..rng.range_u64(1, 6) {
            let at = rng.range_u64(0, text.len() as u64) as usize;
            let at = (0..=at)
                .rev()
                .find(|&i| text.is_char_boundary(i))
                .unwrap_or(0);
            match rng.range_u64(0, 2) {
                0 => text.insert_str(at, pick(rng, &ALPHABET)),
                1 => {
                    let end = (at + rng.range_u64(1, 8) as usize).min(text.len());
                    let end = (end..=text.len())
                        .find(|&i| text.is_char_boundary(i))
                        .unwrap();
                    text.replace_range(at..end, "");
                }
                _ => {
                    let end = (at + 1..=text.len())
                        .find(|&i| text.is_char_boundary(i))
                        .unwrap_or(text.len());
                    text.replace_range(at..end, pick(rng, &ALPHABET));
                }
            }
        }
        if let Ok(back) = csvio::from_csv(&text) {
            assert_eq!(back.validate(), Ok(()), "a parsed trace is valid");
            parsed += 1;
        }
    });
    // Some corruptions still parse (a digit inside a time), most do not.
    assert!(parsed > 0 && parsed < 400, "parsed {parsed} of 400");
}

#[test]
fn token_built_morph_specs_parse_or_error_and_apply_without_panicking() {
    const OPS: [&str; 5] = ["stretch", "scale", "clip", "warp", ""];
    const NUMBERS: [&str; 11] = [
        "0", "0.5", "2", "40", "-1", "1e-300", "1e300", "NaN", "inf", "x", "",
    ];
    const GLUE: [&str; 4] = ["", " ", ";", "=="];
    let mut parsed = 0;
    cases(2_000, 0x71AC_E008, |rng| {
        let mut spec = String::new();
        for i in 0..rng.range_u64(1, 3) {
            if i > 0 {
                spec.push_str(if rng.range_u64(0, 3) == 0 {
                    pick(rng, &GLUE)
                } else {
                    ","
                });
            }
            spec.push_str(pick(rng, &OPS));
            if rng.range_u64(0, 3) > 0 {
                spec.push('=');
            }
            spec.push_str(pick(rng, &NUMBERS));
            if rng.range_u64(0, 1) == 0 {
                spec.push_str("..");
                spec.push_str(pick(rng, &NUMBERS));
            }
        }
        let Ok(morph) = MorphSpec::parse(&spec) else {
            return;
        };
        parsed += 1;
        let trace = arb_trace(rng);
        if let Ok(out) = morph.apply(&trace) {
            let _ = out.validate();
        }
    });
    // Most token strings are malformed; enough parse to exercise apply.
    assert!(parsed > 20, "only {parsed} of 2000 specs parsed");
}

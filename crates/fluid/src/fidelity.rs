//! The `--fidelity {event|fluid|auto}` knob.

use std::fmt;
use std::str::FromStr;

/// How a scenario's queueing components are simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Exact per-request discrete-event simulation (the default; output
    /// is byte-identical to the pre-fluid simulator).
    #[default]
    Event,
    /// Pure flow integration on coarse ticks — deterministic rates, no
    /// per-request events. ~100× cheaper on the diurnal bulk.
    Fluid,
    /// Fluid in steady state, materialized to event level around surge
    /// boundaries (fast rate swings on a hot station) and high
    /// utilization.
    Auto,
}

impl Fidelity {
    /// All fidelities, in CLI-listing order.
    pub const ALL: [Fidelity; 3] = [Fidelity::Event, Fidelity::Fluid, Fidelity::Auto];

    /// The CLI spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Fidelity::Event => "event",
            Fidelity::Fluid => "fluid",
            Fidelity::Auto => "auto",
        }
    }

    /// True unless this is the exact event path — i.e. fluid integration
    /// may replace sampled arrivals somewhere.
    #[must_use]
    pub fn uses_fluid(self) -> bool {
        !matches!(self, Fidelity::Event)
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An unrecognised `--fidelity` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FidelityParseError(pub String);

impl fmt::Display for FidelityParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown fidelity '{}' (expected event, fluid or auto)",
            self.0
        )
    }
}

impl std::error::Error for FidelityParseError {}

impl FromStr for Fidelity {
    type Err = FidelityParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "event" => Ok(Fidelity::Event),
            "fluid" => Ok(Fidelity::Fluid),
            "auto" => Ok(Fidelity::Auto),
            other => Err(FidelityParseError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_spelling() {
        for f in Fidelity::ALL {
            assert_eq!(f.as_str().parse::<Fidelity>().unwrap(), f);
            assert_eq!(f.to_string(), f.as_str());
        }
        assert_eq!(" AUTO ".parse::<Fidelity>().unwrap(), Fidelity::Auto);
    }

    #[test]
    fn default_is_event_and_rejects_unknown() {
        assert_eq!(Fidelity::default(), Fidelity::Event);
        let err = "mean-field".parse::<Fidelity>().unwrap_err();
        assert!(err.to_string().contains("mean-field"));
        assert!(!Fidelity::Event.uses_fluid());
        assert!(Fidelity::Fluid.uses_fluid());
        assert!(Fidelity::Auto.uses_fluid());
    }
}

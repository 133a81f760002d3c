//! Report export (JSON via `serde_json`, CSV by hand) for the tables the
//! `experiments` binary prints.

use crate::VerificationReport;

/// Serialises a report as pretty JSON.
///
/// # Panics
/// Never panics for reports produced by this crate (all fields are
/// serialisable).
#[must_use]
pub fn report_to_json(report: &VerificationReport) -> String {
    serde_json::to_string_pretty(report).expect("reports are always serialisable")
}

/// Parses a report back from JSON.
///
/// # Errors
/// Returns the underlying `serde_json` error on malformed input.
pub fn report_from_json(json: &str) -> Result<VerificationReport, serde_json::Error> {
    serde_json::from_str(json)
}

/// The rounds histogram as a two-column CSV (`rounds,classes`).
#[must_use]
pub fn histogram_to_csv(report: &VerificationReport) -> String {
    let mut out = String::from("rounds,classes\n");
    for (rounds, &classes) in report.rounds_histogram.iter().enumerate() {
        if classes > 0 {
            out.push_str(&format!("{rounds},{classes}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use robots::{Limits, StayAlgorithm};

    fn sample_report() -> VerificationReport {
        crate::verify_all(3, &StayAlgorithm, Limits::default(), 1)
    }

    #[test]
    fn json_roundtrip() {
        let r = sample_report();
        let json = report_to_json(&r);
        let back = report_from_json(&json).unwrap();
        assert_eq!(back.total, r.total);
        assert_eq!(back.gathered, r.gathered);
        assert_eq!(back.failures.len(), r.failures.len());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut r = sample_report();
        r.rounds_histogram = vec![2, 0, 5];
        let csv = histogram_to_csv(&r);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "rounds,classes");
        assert_eq!(lines[1], "0,2");
        assert_eq!(lines[2], "2,5");
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(report_from_json("{not json").is_err());
    }
}

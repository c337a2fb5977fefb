//! The result line: metric names, units, and the JSON shape the
//! benchmark's last output line must have.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, unique within a result.
    pub name: &'static str,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Fraction of attempted ops that failed or were refused.
///
/// # Panics
/// When nothing was attempted or more failed than were attempted.
pub fn fail_frac(attempted: u64, failed: u64) -> f64 {
    assert!(attempted > 0, "no op attempted");
    assert!(failed <= attempted, "{failed} failed of {attempted}");
    failed as f64 / attempted as f64
}

/// Renders the result line: `correct`, `attempted`, `failed`, and every
/// metric with its unit. Numbers print with all their digits.
///
/// # Errors
/// On an invalid or repeated name, an invalid unit, a non-finite value,
/// or zero attempts — a result the benchmark must not print.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    if attempted == 0 || failed > attempted {
        return Err(format!("bad op accounting: {failed} failed of {attempted}"));
    }
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(m.name) || metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("bad or repeated metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("bad unit {:?} for {}", m.unit, m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("{} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip form carries (`{:?}` prints `1.0` and `1e-7`, both valid
/// JSON).
pub fn json_number(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit: "ms",
            value,
        }
    }

    #[test]
    fn name_charset() {
        for ok in [
            "op_ms_p50",
            "count.ms",
            "9lives",
            "serve.update_ms_tail",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "MB", "ratio", "%"] {
            assert!(valid_unit(ok), "{ok}");
        }
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn fail_frac_accounting() {
        assert_eq!(fail_frac(40, 0), 0.0);
        assert_eq!(fail_frac(40, 10), 0.25);
        assert_eq!(fail_frac(3, 3), 1.0);
        assert!(std::panic::catch_unwind(|| fail_frac(0, 0)).is_err());
        assert!(std::panic::catch_unwind(|| fail_frac(2, 3)).is_err());
    }

    #[test]
    fn result_line_shape() {
        let line =
            result_line(true, 12, 1, &[m("op_ms_p50", 1.25), m("setup_s", 0.1)]).expect("valid");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": {\
             \"op_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.1, \"unit\": \"ms\"}}}"
        );
        assert!(result_line(true, 0, 0, &[m("a", 1.0)]).is_err());
        assert!(result_line(true, 1, 2, &[m("a", 1.0)]).is_err());
        assert!(result_line(true, 1, 0, &[m("a", 1.0), m("a", 2.0)]).is_err());
        assert!(result_line(true, 1, 0, &[m("a", f64::NAN)]).is_err());
        assert!(result_line(true, 1, 0, &[m("_a", 1.0)]).is_err());
    }

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e-7), "1e-7");
    }
}

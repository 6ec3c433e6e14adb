//! Plain-text trace serialization.
//!
//! Lets externally collected traces (DART/DNET-style association logs) be
//! loaded into the simulator, and synthetic traces be saved for inspection.
//!
//! Format (line-oriented, `#` comments allowed):
//!
//! ```text
//! dtn-trace v1
//! name campus
//! nodes 320
//! landmarks 159
//! pos 0 12.5 340.0
//! ...one pos line per landmark...
//! v 17 4 1000 1600      # node landmark start end  (seconds)
//! ```

use crate::trace::{Trace, Visit};
use dtnflow_core::geometry::Point;
use dtnflow_core::ids::{LandmarkId, NodeId};
use dtnflow_core::time::SimTime;
use std::fmt::Write as _;

/// Why parsing failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Missing or wrong magic line.
    BadHeader,
    /// A malformed line, with its 1-based number and a description.
    BadLine { line: usize, what: String },
    /// The parsed records failed trace validation.
    Invalid(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader => write!(f, "missing `dtn-trace v1` header"),
            ParseError::BadLine { line, what } => write!(f, "line {line}: {what}"),
            ParseError::Invalid(e) => write!(f, "invalid trace: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serialize a trace to the v1 text format.
pub fn to_text(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("dtn-trace v1\n");
    let _ = writeln!(out, "name {}", trace.name());
    let _ = writeln!(out, "nodes {}", trace.num_nodes());
    let _ = writeln!(out, "landmarks {}", trace.num_landmarks());
    for (i, p) in trace.positions().iter().enumerate() {
        let _ = writeln!(out, "pos {i} {} {}", p.x, p.y);
    }
    for v in trace.visits() {
        let _ = writeln!(
            out,
            "v {} {} {} {}",
            v.node.index(),
            v.landmark.index(),
            v.start.secs(),
            v.end.secs()
        );
    }
    out
}

/// The value of a `nodes`/`landmarks` line: a count that fits the id
/// type it counts (at most `max`), checked before anything is sized by it.
fn count(tag: &str, token: Option<&str>, max: u64) -> Result<usize, String> {
    let n: u64 = token
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{tag} requires a count"))?;
    usize::try_from(n)
        .ok()
        .filter(|_| n <= max)
        .ok_or_else(|| format!("{tag} {n} exceeds the id space (at most {max})"))
}

/// Parse the v1 text format back into a validated [`Trace`].
pub fn from_text(text: &str) -> Result<Trace, ParseError> {
    let mut lines = text.lines().enumerate();
    let header = lines
        .next()
        .map(|(_, l)| l.trim())
        .ok_or(ParseError::BadHeader)?;
    if header != "dtn-trace v1" {
        return Err(ParseError::BadHeader);
    }

    let mut name = String::from("unnamed");
    let mut nodes = 0usize;
    let mut landmarks = 0usize;
    let mut positions: Vec<(usize, Point)> = Vec::new();
    let mut visits: Vec<Visit> = Vec::new();

    let bad = |line: usize, what: &str| ParseError::BadLine {
        line: line + 1,
        what: what.to_string(),
    };

    for (ln, raw) in lines {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        // A trimmed non-empty line always yields a first token, but this
        // parser handles foreign input — surface a typed error instead of
        // relying on that invariant with a panic.
        let Some(tag) = it.next() else {
            return Err(bad(ln, "line has no tag token"));
        };
        match tag {
            "name" => {
                name = it.collect::<Vec<_>>().join(" ");
                if name.is_empty() {
                    return Err(bad(ln, "name requires a value"));
                }
            }
            "nodes" => nodes = count(tag, it.next(), u32::MAX.into()).map_err(|w| bad(ln, &w))?,
            "landmarks" => {
                landmarks = count(tag, it.next(), u16::MAX.into()).map_err(|w| bad(ln, &w))?;
            }
            "pos" => {
                let i: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(ln, "pos requires an index"))?;
                let x: f64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(ln, "pos requires x"))?;
                let y: f64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(ln, "pos requires y"))?;
                positions.push((i, Point::new(x, y)));
            }
            "v" => {
                let mut next_u64 = || -> Option<u64> { it.next().and_then(|s| s.parse().ok()) };
                let (Some(n), Some(l), Some(s), Some(e)) =
                    (next_u64(), next_u64(), next_u64(), next_u64())
                else {
                    return Err(bad(ln, "v requires: node landmark start end"));
                };
                let node = u32::try_from(n).map_err(|_| bad(ln, "node id exceeds u32"))?;
                let lm = u16::try_from(l).map_err(|_| bad(ln, "landmark id exceeds u16"))?;
                visits.push(Visit::new(
                    NodeId(node),
                    LandmarkId(lm),
                    SimTime(s),
                    SimTime(e),
                ));
            }
            other => return Err(bad(ln, &format!("unknown tag `{other}`"))),
        }
    }

    // Checked against the lines present: the declared count sizes nothing.
    positions.sort_by_key(|&(i, _)| i);
    if positions.len() != landmarks || positions.iter().enumerate().any(|(k, &(i, _))| i != k) {
        return Err(ParseError::Invalid(format!(
            "positions must cover 0..{landmarks} exactly once"
        )));
    }
    let pos: Vec<Point> = positions.into_iter().map(|(_, p)| p).collect();

    Trace::new(name, nodes, landmarks, pos, visits).map_err(|e| ParseError::Invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            "sample trace",
            2,
            2,
            vec![Point::new(0.0, 0.0), Point::new(10.0, 20.0)],
            vec![
                Visit::new(NodeId(0), LandmarkId(0), SimTime(0), SimTime(100)),
                Visit::new(NodeId(1), LandmarkId(1), SimTime(50), SimTime(150)),
                Visit::new(NodeId(0), LandmarkId(1), SimTime(200), SimTime(300)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let text = to_text(&t);
        let back = from_text(&text).unwrap();
        assert_eq!(back.name(), t.name());
        assert_eq!(back.num_nodes(), t.num_nodes());
        assert_eq!(back.num_landmarks(), t.num_landmarks());
        assert_eq!(back.positions(), t.positions());
        assert_eq!(back.visits(), t.visits());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "dtn-trace v1\n# header comment\nname x\n\nnodes 1\nlandmarks 1\npos 0 0 0\nv 0 0 0 10 # trailing comment\n";
        let t = from_text(text).unwrap();
        assert_eq!(t.visits().len(), 1);
        assert_eq!(t.name(), "x");
    }

    #[test]
    fn rejects_bad_header() {
        assert_eq!(from_text("nope\n"), Err(ParseError::BadHeader));
        assert_eq!(from_text(""), Err(ParseError::BadHeader));
    }

    #[test]
    fn rejects_malformed_lines() {
        let text = "dtn-trace v1\nv 0 0 0\n";
        match from_text(text) {
            Err(ParseError::BadLine { line: 2, .. }) => {}
            other => panic!("expected BadLine, got {other:?}"),
        }
        let text = "dtn-trace v1\nfrobnicate 1\n";
        assert!(matches!(from_text(text), Err(ParseError::BadLine { .. })));
    }

    #[test]
    fn rejects_missing_positions() {
        let text = "dtn-trace v1\nname x\nnodes 1\nlandmarks 2\npos 0 0 0\nv 0 0 0 10\n";
        assert!(matches!(from_text(text), Err(ParseError::Invalid(_))));
    }

    /// Ids beyond `NodeId`/`LandmarkId` and counts beyond those id spaces
    /// are line errors, raised before anything is sized by them (each of
    /// these panicked or aborted the parser before).
    #[test]
    fn out_of_range_ids_and_counts_are_line_errors() {
        for (body, line) in [
            ("v 4294967296 0 0 10", 2),
            ("v 0 65536 0 10", 2),
            ("landmarks 2305843009213693952", 2),
            ("landmarks 65536", 2),
            ("nodes 2305843009213693952\nlandmarks 1\npos 0 0 0", 2),
            ("nodes 1\nnodes 4294967296\nlandmarks 1\npos 0 0 0", 3),
        ] {
            let text = format!("dtn-trace v1\n{body}\n");
            match from_text(&text) {
                Err(ParseError::BadLine { line: l, .. }) => assert_eq!(l, line, "{body}"),
                other => panic!("{body}: expected BadLine, got {other:?}"),
            }
        }
    }

    /// The position check counts the `pos` lines present; a declared
    /// landmark count with no lines behind it allocates nothing.
    #[test]
    fn a_large_landmark_count_without_positions_is_invalid() {
        let text = "dtn-trace v1\nnodes 1\nlandmarks 65535\npos 0 0 0\n";
        assert!(matches!(from_text(text), Err(ParseError::Invalid(_))));
    }

    #[test]
    fn rejects_invalid_visits() {
        // end <= start fails trace validation.
        let text = "dtn-trace v1\nname x\nnodes 1\nlandmarks 1\npos 0 0 0\nv 0 0 10 10\n";
        assert!(matches!(from_text(text), Err(ParseError::Invalid(_))));
    }

    const TAGS: [&str; 5] = ["name", "nodes", "landmarks", "pos", "v"];
    /// Id-space boundaries (u16, u32, u64), a negative, a non-number and
    /// an empty token.
    const TOKENS: [&str; 10] = [
        "0",
        "1",
        "65535",
        "65536",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "-1",
        "x",
        "",
    ];

    proptest::proptest! {
        /// Random lines built from the tags and boundary tokens parse to
        /// `Ok` or `Err`, never a panic. Half the cases start from a valid
        /// two-landmark skeleton so later lines reach trace validation.
        #[test]
        fn random_lines_never_panic(
            skeleton in 0..2usize,
            lines in proptest::collection::vec(
                (0..TAGS.len(), 0..5usize, 0..TOKENS.len(), 0..TOKENS.len(),
                 0..TOKENS.len(), 0..TOKENS.len()),
                0..12,
            ),
        ) {
            let mut text = String::from("dtn-trace v1\n");
            if skeleton == 1 {
                text.push_str("nodes 2\nlandmarks 2\npos 0 0 0\npos 1 5 5\n");
            }
            for (tag, arity, a, b, c, d) in lines {
                let mut line = TAGS[tag].to_owned();
                for t in [a, b, c, d].into_iter().take(arity) {
                    // An in-range node count of billions is a resource
                    // limit, not a parse error: counts stay at or below
                    // 2^16 or beyond the id spaces.
                    let token = match (TAGS[tag], TOKENS[t]) {
                        ("nodes", "4294967295") => "65536",
                        (_, token) => token,
                    };
                    line.push(' ');
                    line.push_str(token);
                }
                text.push_str(&line);
                text.push('\n');
            }
            let _ = from_text(&text);
        }
    }
}

//! The line-based universe file format shared by `mube-cli` and `mubed`.
//!
//! `#` starts a comment line; every other non-blank line is one source:
//!
//! ```text
//! sitename | cardinality | attr1, attr2, attr3 | key=value key=value
//! ```
//!
//! The trailing characteristics section is optional.

use std::fmt::Write as _;

use mube_schema::{SourceBuilder, Universe};

/// Serializes a universe to the file format.
pub fn format_universe(universe: &Universe) -> String {
    let mut out = String::from("# mube universe: name | cardinality | attrs | characteristics\n");
    for source in universe.sources() {
        let attrs = source.attributes().join(", ");
        let chars = source
            .characteristics()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            out,
            "{} | {} | {} | {}",
            source.name(),
            source.cardinality(),
            attrs,
            chars
        );
    }
    out
}

/// Parses the file format into a universe.
///
/// # Errors
/// A malformed line (reported with its 1-based line number), or a file
/// with no sources.
pub fn parse_universe(text: &str) -> Result<Universe, String> {
    let mut universe = Universe::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split('|').map(str::trim).collect();
        if parts.len() < 3 {
            return Err(format!(
                "line {}: expected 'name | cardinality | attrs [| characteristics]'",
                lineno + 1
            ));
        }
        let cardinality: u64 = parts[1]
            .parse()
            .map_err(|e| format!("line {}: bad cardinality: {e}", lineno + 1))?;
        let attrs: Vec<String> = parts[2]
            .split(',')
            .map(|a| a.trim().to_owned())
            .filter(|a| !a.is_empty())
            .collect();
        let mut builder = SourceBuilder::new(parts[0])
            .attributes(attrs)
            .cardinality(cardinality);
        if let Some(chars) = parts.get(3) {
            for pair in chars.split_whitespace() {
                let (key, value) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("line {}: bad characteristic {pair:?}", lineno + 1))?;
                let value: f64 = value
                    .parse()
                    .map_err(|e| format!("line {}: bad characteristic value: {e}", lineno + 1))?;
                builder = builder.characteristic(key, value);
            }
        }
        universe
            .add_source(builder)
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
    }
    if universe.is_empty() {
        return Err("universe file contains no sources".to_owned());
    }
    Ok(universe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mube_schema::SourceId;

    const SAMPLE: &str = "\
# demo universe
alpha.com | 1000 | title, author, isbn | mttf=100 latency=50
beta.org  | 2000 | title, author       | mttf=80
gamma.net | 500  | voltage, turbine    |
";

    #[test]
    fn parse_roundtrip() {
        let u = parse_universe(SAMPLE).unwrap();
        assert_eq!(u.len(), 3);
        assert_eq!(u.expect_source(SourceId(0)).name(), "alpha.com");
        assert_eq!(u.expect_source(SourceId(0)).arity(), 3);
        assert_eq!(
            u.expect_source(SourceId(0)).characteristic("mttf"),
            Some(100.0)
        );
        assert_eq!(u.expect_source(SourceId(1)).cardinality(), 2000);
        assert_eq!(u.expect_source(SourceId(2)).characteristics().len(), 0);
        // Serialize and re-parse: same universe.
        let text = format_universe(&u);
        let again = parse_universe(&text).unwrap();
        assert_eq!(u, again);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_universe("just one field").is_err());
        assert!(parse_universe("name | notanumber | a, b").is_err());
        assert!(parse_universe("name | 10 | a | badpair").is_err());
        assert!(parse_universe("# only comments\n").is_err());
    }
}

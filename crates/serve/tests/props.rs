//! Property tests for the wire parsers: `Json::parse` and `parse_request`
//! never panic, whatever a client sends, and every JSON value the protocol
//! can carry survives render → parse → render byte for byte, compact or
//! indented.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use mube_serve::{parse_request, Json};

/// Lexer-relevant fragments: structural tokens, literals and their
/// near-misses, escapes (valid, truncated, unpaired surrogates), numbers
/// at and past the `f64` and `u64` limits, and protocol keys and commands.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    " ",
    "\t",
    "\n",
    "\"",
    "\\",
    "\\\"",
    "\\n",
    "\\u",
    "\\u00e9",
    "\\ud83d",
    "\\ude00",
    "\\x",
    "null",
    "nul",
    "true",
    "tru",
    "false",
    "-",
    "0",
    "7",
    "01",
    "1.5",
    "1.",
    ".5",
    "1e308",
    "1e999",
    "-0",
    "e",
    "E+",
    "18446744073709551616",
    "é",
    "😀",
    "\u{0}",
    "\"id\"",
    "\"cmd\"",
    "\"session\"",
    "\"solve\"",
    "\"create-session\"",
    "\"edit-constraints\"",
    "\"weights\"",
    "\"adopt_ga\"",
    "\"require_source\"",
    "\"theta\"",
    "\"max_sources\"",
];

/// Characters a string payload draws from: plain ASCII, the two characters
/// the writer must escape, every control-character class, and non-ASCII
/// scalars up to the top of the Unicode range.
const CHARS: &str =
    "aZ0 /\"\\\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}éß€\u{2028}\u{fffd}😀\u{10ffff}";

/// Finite numbers at the edges of the renderer's and the parser's range.
const EDGE_NUMBERS: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    0.1,
    1e-7,
    1e21,
    9_007_199_254_740_992.0,
    18_446_744_073_709_551_616.0,
    f64::MAX,
    f64::MIN,
    f64::MIN_POSITIVE,
    f64::EPSILON,
    5e-324,
];

/// The protocol's top-level member names.
const KEYS: &[&str] = &[
    "id",
    "cmd",
    "session",
    "max_sources",
    "theta",
    "seed",
    "solver",
    "weights",
    "require_source",
    "adopt_ga",
];

/// The protocol's commands, plus one it does not know.
const COMMANDS: &[&str] = &[
    "create-session",
    "edit-constraints",
    "solve",
    "cancel",
    "inspect",
    "diff",
    "shutdown",
];

fn arb_string(rng: &mut TestRng) -> String {
    let len = (0usize..10).generate(rng);
    let chars = prop::sample::select(CHARS.chars().collect());
    (0..len).map(|_| chars.generate(rng)).collect()
}

fn arb_number(rng: &mut TestRng) -> f64 {
    match (0u32..4).generate(rng) {
        0 => (-1_000_000i64..1_000_000).generate(rng) as f64,
        1 => any::<f64>().generate(rng),
        2 => prop::sample::select(EDGE_NUMBERS.to_vec()).generate(rng),
        _ => (-1.0f64..1.0).generate(rng) * 10f64.powi((-300i32..300).generate(rng)),
    }
}

/// JSON values nested at most `depth` levels below the root, with finite
/// numbers only (the one restriction the wire format itself imposes).
#[derive(Debug, Clone, Copy)]
struct ArbJson {
    depth: u32,
}

impl Strategy for ArbJson {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let kinds = if self.depth == 0 { 4 } else { 6 };
        let child = ArbJson {
            depth: self.depth.saturating_sub(1),
        };
        match (0u32..kinds).generate(rng) {
            0 => Json::Null,
            1 => Json::Bool(any::<bool>().generate(rng)),
            2 => Json::Num(arb_number(rng)),
            3 => Json::Str(arb_string(rng)),
            4 => {
                let len = (0usize..5).generate(rng);
                Json::Arr((0..len).map(|_| child.generate(rng)).collect())
            }
            _ => {
                let len = (0usize..5).generate(rng);
                Json::Obj(
                    (0..len)
                        .map(|_| (arb_string(rng), child.generate(rng)))
                        .collect(),
                )
            }
        }
    }
}

/// Request-shaped objects: an `id` and a `cmd` that are usually well typed,
/// plus protocol members with arbitrary values, so the parser gets past
/// the envelope into every command's field decoding.
#[derive(Debug, Clone, Copy)]
struct ArbRequest;

impl Strategy for ArbRequest {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let value = ArbJson { depth: 3 };
        let id = if (0u32..4).generate(rng) == 0 {
            value.generate(rng)
        } else {
            Json::Num(arb_number(rng).abs().trunc())
        };
        let cmd = prop::sample::select(COMMANDS.to_vec()).generate(rng);
        let mut members = vec![
            ("id".to_owned(), id),
            ("cmd".to_owned(), Json::Str(cmd.to_owned())),
        ];
        for _ in 0..(0usize..5).generate(rng) {
            let key = prop::sample::select(KEYS.to_vec()).generate(rng);
            members.push((key.to_owned(), value.generate(rng)));
        }
        Json::Obj(members.into_iter().collect())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parsers_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
        let _ = parse_request(&text);
    }

    #[test]
    fn parsers_never_panic_on_json_token_soup(
        tokens in prop::collection::vec(prop::sample::select(TOKENS.to_vec()), 0..48),
    ) {
        let text = tokens.concat();
        let _ = Json::parse(&text);
        let _ = parse_request(&text);
    }

    #[test]
    fn parsers_never_panic_on_damaged_json(
        value in ArbJson { depth: 4 },
        cut in any::<usize>(),
        token in prop::sample::select(TOKENS.to_vec()),
    ) {
        // A valid rendering cut at any character and with a token spliced
        // in there: every parser state meets every token and the end of
        // input.
        let text = value.render();
        let mut at = cut % (text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let (head, tail) = text.split_at(at);
        for damaged in [head.to_owned(), format!("{head}{token}"), format!("{head}{token}{tail}")] {
            let _ = Json::parse(&damaged);
            let _ = parse_request(&damaged);
        }
    }

    #[test]
    fn render_then_parse_round_trips_byte_identically(value in ArbJson { depth: 4 }) {
        // Compact and two-space-indented renderings alike.
        for render in [Json::render, Json::render_pretty] {
            let text = render(&value);
            let parsed = Json::parse(&text);
            prop_assert_eq!(parsed.as_ref(), Ok(&value), "rendered as {}", text);
            if let Ok(parsed) = parsed {
                prop_assert_eq!(render(&parsed), text);
            }
        }
    }

    #[test]
    fn request_decoding_never_panics_and_keeps_the_id(request in ArbRequest) {
        let text = request.render();
        if let Ok(decoded) = parse_request(&text) {
            prop_assert_eq!(Some(decoded.id), request.get("id").and_then(Json::as_u64));
        }
    }
}

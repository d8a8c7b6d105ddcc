//! Fuzz-style hardening corpus for the hand-rolled JSON parser.
//!
//! The parser now sits on a network boundary (`sim-serve` feeds it
//! raw socket lines), so every malformed, truncated, oversized, or
//! adversarially nested input must come back as a `JsonError` — never
//! a panic, and never a stack overflow. The corpus below is grouped
//! by attack shape; each case is run through both the permissive
//! default limits and the strict network limits.

use sim_observe::{parse, parse_with_limits, Json, ParseLimits};

/// Asserts the input errors (rather than panicking) under both limit
/// presets.
fn assert_rejected(input: &str, why: &str) {
    assert!(parse(input).is_err(), "default limits accepted {why}: {input:?}");
    assert!(
        parse_with_limits(input, ParseLimits::network()).is_err(),
        "network limits accepted {why}: {input:?}"
    );
}

#[test]
fn truncated_documents_error_cleanly() {
    for input in [
        "",
        "{",
        "}",
        "[",
        "[1,",
        "[1, 2",
        "{\"a\"",
        "{\"a\":",
        "{\"a\":1",
        "{\"a\":1,",
        "\"unterminated",
        "\"bad escape \\",
        "\"half surrogate \\ud83d",
        "\"half surrogate \\ud83d\\u00",
        "tru",
        "nul",
        "fals",
        "-",
        "+",
        "1e",
        "0x10",
    ] {
        assert_rejected(input, "a truncated/malformed document");
    }
}

#[test]
fn bad_escapes_and_control_characters_error_cleanly() {
    for input in [
        r#""\q""#,
        r#""\u12""#,
        r#""\uZZZZ""#,
        r#""\ud800\ud800""#, // high surrogate followed by another high
        r#""\udc00""#,       // lone low surrogate parses as invalid char
        "\"ctrl \u{01}\"",   // raw control byte inside a string
        "\"tab\t\"",
    ] {
        assert_rejected(input, "a bad escape or control character");
    }
}

#[test]
fn oversized_numbers_error_cleanly() {
    // Floats that overflow to infinity have no JSON value; integer
    // literals wider than u64 fall back to finite floats and are fine.
    assert_rejected("1e999", "an overflowing float");
    assert_rejected("-1e999", "an overflowing negative float");
    assert_rejected("1e+999999999", "a huge exponent");
    // An integer literal wider than u64 overflows the f64 fallback
    // and must be rejected too (it would otherwise serialize as null).
    assert_rejected(&"9".repeat(400), "an overflowing wide integer");
    let big_int = "9".repeat(30); // wider than u64, finite as f64
    let parsed = parse(&big_int).expect("wide-but-finite integers fall back to f64");
    assert!(matches!(parsed, Json::Float(v) if v.is_finite()));
    // A pathologically long digit string still terminates promptly
    // (rejected: over the network byte limit, and overflowing anyway).
    let long = "1".repeat(100_000);
    assert!(parse_with_limits(&long, ParseLimits::network()).is_err());
    assert!(parse(&long).is_err());
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    // 100k unclosed brackets would previously recurse to a stack
    // overflow (an abort, not a catchable panic). The depth limit
    // turns it into an ordinary parse error.
    for bomb in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
        let err = parse(&bomb).expect_err("nesting bomb must be rejected");
        assert!(err.message.contains("nesting"), "unexpected error: {err}");
    }
    // Balanced-but-deep documents are rejected just the same.
    let balanced = format!("{}1{}", "[".repeat(1_000), "]".repeat(1_000));
    assert!(parse(&balanced).is_err(), "depth 1000 exceeds the default limit");
    let shallow = format!("{}1{}", "[".repeat(500), "]".repeat(500));
    assert!(parse(&shallow).is_ok(), "depth 500 fits the default limit");
}

#[test]
fn network_limits_bound_depth_and_size() {
    let limits = ParseLimits::network();
    // Depth 16 passes, 17 fails.
    let fits = format!("{}1{}", "[".repeat(16), "]".repeat(16));
    assert!(parse_with_limits(&fits, limits).is_ok());
    let deep = format!("{}1{}", "[".repeat(17), "]".repeat(17));
    let err = parse_with_limits(&deep, limits).expect_err("depth 17 exceeds 16");
    assert!(err.message.contains("16-level"), "{err}");
    // Oversized input is rejected before any parsing work happens.
    let huge = format!("\"{}\"", "x".repeat(limits.max_bytes));
    let err = parse_with_limits(&huge, limits).expect_err("oversized input");
    assert_eq!(err.offset, 0);
    assert!(err.message.contains("byte limit"), "{err}");
    // The same document is fine under the default (unbounded) limits.
    assert!(parse(&huge).is_ok());
}

#[test]
fn custom_limits_are_honoured_exactly() {
    let tight = ParseLimits {
        max_bytes: 10,
        max_depth: 2,
    };
    assert!(parse_with_limits("[[1]]", tight).is_ok());
    assert!(parse_with_limits("[[[1]]]", tight).is_err());
    assert!(parse_with_limits("12345678901", tight).is_err());
    assert!(parse_with_limits("1234567890", tight).is_ok());
}

#[test]
fn valid_documents_still_parse_under_network_limits() {
    // The hardening must not reject the protocol's own traffic.
    let request = r#"{"experiment":"e2","seed":42,"trials":null,"params":{"fast":true}}"#;
    let doc = parse_with_limits(request, ParseLimits::network()).expect("valid request");
    assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("e2"));
    // Round-trip through the serializer is unchanged by limits.
    assert_eq!(
        parse_with_limits(&doc.to_compact(), ParseLimits::network()).unwrap(),
        doc
    );
}

#[test]
fn garbage_bytes_never_panic() {
    // A light deterministic fuzz sweep: xor-scramble a valid document
    // at every byte position and require parse() to return (Ok or Err,
    // never panic). The loop doubles as a liveness check — no input
    // may hang the parser.
    let seed = r#"{"k":[1,-2,3.5,true,null,"sA"],"o":{"n":1e2}}"#;
    let mut bytes = seed.as_bytes().to_vec();
    for i in 0..bytes.len() {
        let orig = bytes[i];
        for flip in [0x01u8, 0x20, 0x7f] {
            bytes[i] = orig ^ flip;
            if let Ok(s) = std::str::from_utf8(&bytes) {
                let _ = parse(s);
                let _ = parse_with_limits(s, ParseLimits::network());
            }
        }
        bytes[i] = orig;
    }
}

//! Property/fuzz suite for `irs_serve`'s two JSON parsers.
//!
//! The serving crate carries a DOM parser ([`JsonValue::parse`], used by
//! clients and tests) and an arena parser ([`JsonSlab::parse`], the
//! allocation-free request path).  Both implement the same grammar, so
//! this suite pins them against each other three ways:
//!
//! * **round-trip** — random documents survive serialise → parse bitwise
//!   through both parsers;
//! * **direct writers** — `write_json_str` / `write_json_num` (the
//!   zero-allocation response serialisers) agree with the DOM's
//!   `Display` output;
//! * **mutation corpus** — truncations, byte flips, random splices,
//!   invalid UTF-8, pathological nesting and huge numbers must all
//!   return `Err` or a valid value, never panic, hang or over-read, and
//!   the two parsers must agree verdict-for-verdict on every UTF-8
//!   input.
//!
//! The generator is a seeded xorshift so every failure reproduces
//! exactly; no external fuzzing engine is involved.

use irs_serve::{write_json_num, write_json_str, JsonSlab, JsonValue, MAX_DEPTH};

/// Tiny deterministic RNG (xorshift64*) so the corpus is stable across
/// runs and failures replay from the seed alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Characters the string generator draws from: ASCII, JSON-significant
/// punctuation, control characters and multi-byte scalars.
const CHAR_POOL: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{8}', '\u{c}', '\u{1}', '\u{7f}', 'é',
    'ß', '漢', '🦀', '\u{fffd}', '{', '}', '[', ']', ',', ':',
];

fn gen_string(rng: &mut Rng) -> String {
    (0..rng.below(12)).map(|_| CHAR_POOL[rng.below(CHAR_POOL.len())]).collect()
}

fn gen_number(rng: &mut Rng) -> f64 {
    match rng.below(5) {
        0 => rng.below(1000) as f64,
        1 => -(rng.below(1000) as f64),
        // Integers near the i64-rendering boundary of the serialisers.
        2 => (rng.next() % 9_007_199_254_740_992) as f64,
        3 => rng.next() as f64 / u64::MAX as f64 * 2e3 - 1e3,
        // Random finite bit patterns, extremes included.
        _ => {
            let f = f64::from_bits(rng.next());
            if f.is_finite() {
                f
            } else {
                rng.below(7) as f64
            }
        }
    }
}

fn gen_value(rng: &mut Rng, depth: usize) -> JsonValue {
    let scalar_only = depth >= 4;
    match rng.below(if scalar_only { 4 } else { 6 }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.below(2) == 0),
        2 => JsonValue::Num(gen_number(rng)),
        3 => JsonValue::Str(gen_string(rng)),
        4 => JsonValue::Arr((0..rng.below(5)).map(|_| gen_value(rng, depth + 1)).collect()),
        _ => JsonValue::Obj(
            (0..rng.below(5)).map(|_| (gen_string(rng), gen_value(rng, depth + 1))).collect(),
        ),
    }
}

#[test]
fn random_documents_round_trip_through_both_parsers() {
    let mut rng = Rng::new(0xf022_51a7);
    let mut slab = JsonSlab::new();
    for case in 0..400 {
        let value = gen_value(&mut rng, 0);
        let text = value.to_string();
        let dom = JsonValue::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: DOM rejected own output {text:?}: {e}"));
        assert_eq!(dom, value, "case {case}: DOM round-trip changed {text:?}");
        let arena = slab
            .parse(text.as_bytes())
            .unwrap_or_else(|e| panic!("case {case}: slab rejected {text:?}: {e}"))
            .to_value();
        assert_eq!(arena, value, "case {case}: slab round-trip changed {text:?}");
    }
}

#[test]
fn direct_writers_agree_with_the_dom_serialiser() {
    let mut rng = Rng::new(0xd1ec_7a11);
    let mut out = Vec::new();
    for _ in 0..400 {
        out.clear();
        let s = gen_string(&mut rng);
        write_json_str(&mut out, &s);
        assert_eq!(
            String::from_utf8(out.clone()).unwrap(),
            JsonValue::Str(s.clone()).to_string(),
            "write_json_str diverged for {s:?}"
        );
        out.clear();
        let n = gen_number(&mut rng);
        write_json_num(&mut out, n);
        assert_eq!(
            String::from_utf8(out.clone()).unwrap(),
            JsonValue::Num(n).to_string(),
            "write_json_num diverged for {n:?}"
        );
    }
}

/// Parse `bytes` with both parsers and assert they agree: same Ok/Err
/// verdict and, on Ok, the same value.  The DOM parser only sees UTF-8
/// inputs (its signature takes `&str`); the slab must reject invalid
/// UTF-8 on its own.  Panics from either parser fail the test naturally.
fn assert_parsers_agree(bytes: &[u8], slab: &mut JsonSlab, context: &str) {
    let arena = slab.parse(bytes).map(|r| r.to_value());
    match std::str::from_utf8(bytes) {
        Ok(text) => {
            let dom = JsonValue::parse(text);
            match (&arena, &dom) {
                (Ok(a), Ok(d)) => assert_eq!(a, d, "{context}: values diverged for {text:?}"),
                (Err(_), Err(_)) => {}
                _ => panic!(
                    "{context}: verdicts diverged for {text:?}: slab {:?} vs dom {:?}",
                    arena.as_ref().map(|_| "Ok"),
                    dom.as_ref().map(|_| "Ok"),
                ),
            }
        }
        Err(_) => {
            // Invalid UTF-8 can only hide inside strings (every other
            // token is ASCII), where the slab validates and rejects it —
            // a non-UTF-8 document must never parse to a value.
            assert!(arena.is_err(), "{context}: slab accepted invalid UTF-8 {bytes:?}");
        }
    }
}

#[test]
fn mutated_documents_never_panic_and_parsers_agree() {
    let mut rng = Rng::new(0xbad5_eed5);
    let mut slab = JsonSlab::new();
    for case in 0..600 {
        let mut bytes = gen_value(&mut rng, 0).to_string().into_bytes();
        for _ in 0..1 + rng.below(3) {
            if bytes.is_empty() {
                break;
            }
            match rng.below(6) {
                // Truncation: drop a random tail.
                0 => bytes.truncate(rng.below(bytes.len() + 1)),
                // Flip one byte to a random value.
                1 => {
                    let at = rng.below(bytes.len());
                    bytes[at] = (rng.next() & 0xff) as u8;
                }
                // Insert a random byte (structural chars weighted in).
                2 => {
                    let at = rng.below(bytes.len() + 1);
                    let b = *[b'{', b'[', b'"', b'\\', b',', 0x00, 0xff, b'9']
                        .get(rng.below(8))
                        .unwrap();
                    bytes.insert(at, b);
                }
                // Duplicate a random slice (grows nesting/garbage).
                3 => {
                    let from = rng.below(bytes.len());
                    let to = from + rng.below(bytes.len() - from + 1);
                    let slice = bytes[from..to].to_vec();
                    let at = rng.below(bytes.len() + 1);
                    bytes.splice(at..at, slice);
                }
                // Splice an invalid UTF-8 sequence in.
                4 => {
                    let at = rng.below(bytes.len() + 1);
                    bytes.splice(at..at, [0xc0, 0xaf]);
                }
                // Splice a huge number in.
                _ => {
                    let at = rng.below(bytes.len() + 1);
                    bytes.splice(at..at, b"1e308999".iter().copied());
                }
            }
        }
        assert_parsers_agree(&bytes, &mut slab, &format!("mutation case {case}"));
    }
}

#[test]
fn handcrafted_adversarial_corpus_is_handled_without_panic() {
    let mut slab = JsonSlab::new();
    // Inputs that must be *rejected* (Err, not panic/hang/over-read).
    let must_reject: &[&[u8]] = &[
        b"",
        b" ",
        b"{",
        b"}",
        b"[",
        b"]",
        b"\"",
        b"\"abc",
        b"\"abc\\",
        b"\"\\q\"",
        b"\"\\u12\"",
        b"\"\\u123",
        b"\"\\uzzzz\"",
        b"\"\\u+041\"",
        b"tru",
        b"truex",
        b"nul",
        b"-",
        b"+1",
        b"1e",
        b".5e",
        b"--1",
        b"0x10",
        b"01",
        b"-01",
        b"00",
        b"1.",
        b"1.e5",
        b"{\"user\": 01}",
        b"{\"a\"}",
        b"{\"a\":}",
        b"{:1}",
        b"{1:2}",
        b"{\"a\":1,}",
        b"[1,]",
        b"[,1]",
        b"[1 2]",
        b"[1]]",
        b"{\"a\":1}}",
        b"null null",
        b"\xff",
        b"\"\xff\"",
        b"\"a\xc0\xafb\"",
        b"{\"\xf0\x28\x8c\x28\":1}",
    ];
    for input in must_reject {
        assert!(slab.parse(input).is_err(), "slab accepted adversarial input {input:?}");
        if let Ok(text) = std::str::from_utf8(input) {
            assert!(JsonValue::parse(text).is_err(), "DOM accepted adversarial input {text:?}");
        }
    }
    // Nesting at the depth bound parses; one level beyond is rejected
    // (by the explicit bound — not a stack overflow).  The innermost
    // value sits at depth N-1 for N brackets and the guard trips at
    // depth > MAX_DEPTH, so MAX_DEPTH+1 brackets is the last accepted.
    let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    assert!(slab.parse(at_limit.as_bytes()).is_ok());
    assert!(JsonValue::parse(&at_limit).is_ok());
    let beyond = format!("{}{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
    assert!(slab.parse(beyond.as_bytes()).is_err());
    assert!(JsonValue::parse(&beyond).is_err());
    // Unclosed pathological nesting (the classic parser-killer) errors
    // out at the depth bound instead of recursing to a crash.
    let unclosed = "[".repeat(100_000);
    assert!(slab.parse(unclosed.as_bytes()).is_err());
    assert!(JsonValue::parse(&unclosed).is_err());
    let mixed = "{\"k\":[".repeat(50_000);
    assert!(slab.parse(mixed.as_bytes()).is_err());
    assert!(JsonValue::parse(&mixed).is_err());
    // Huge numbers saturate to f64 infinity (std's parse semantics) in
    // *both* parsers rather than erroring or hanging.
    for huge in ["1e309", "-1e309", &"9".repeat(400)] {
        let dom = JsonValue::parse(huge).unwrap();
        let arena = slab.parse(huge.as_bytes()).unwrap().to_value();
        assert_eq!(dom, arena, "huge-number verdicts diverged for {huge}");
    }
    // Lone surrogates decode to U+FFFD identically in both parsers.
    let surrogate = "\"\\ud800 and \\udfff\"";
    assert_eq!(
        JsonValue::parse(surrogate).unwrap(),
        slab.parse(surrogate.as_bytes()).unwrap().to_value()
    );
}

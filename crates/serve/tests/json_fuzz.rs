//! Property/fuzz suite for `irs_serve`'s JSON grammar.
//!
//! The serving crate has one parser, the arena parser
//! ([`JsonSlab::parse`], the allocation-free request path);
//! [`JsonValue::parse`] is that parser building an owned tree.  It has
//! one serialiser too: `JsonValue`'s `Display` goes through the direct
//! writers the response handlers use.  This suite pins them three ways:
//!
//! * **round-trip** — random documents survive serialise → parse bitwise,
//!   through a fresh slab and through one reused slab;
//! * **mutation corpus** — truncations, byte flips, random splices,
//!   invalid UTF-8, pathological nesting and huge numbers must all
//!   return `Err` or a valid value, never panic, hang or over-read; an
//!   accepted document is a fixed point: it re-serialises and re-parses
//!   to an equal value;
//! * **adversarial corpus** — hand-written inputs the grammar must reject,
//!   plus the depth bound, huge numbers and lone surrogates.
//!
//! The generator is a seeded xorshift so every failure reproduces
//! exactly; no external fuzzing engine is involved.

use irs_serve::{JsonSlab, JsonValue, MAX_DEPTH};

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
        // Integers near the i64-rendering boundary of the serialiser.
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
fn random_documents_round_trip_through_fresh_and_reused_slabs() {
    let mut rng = Rng::new(0xf022_51a7);
    let mut slab = JsonSlab::new();
    for case in 0..400 {
        let value = gen_value(&mut rng, 0);
        let text = value.to_string();
        let fresh = JsonValue::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: rejected own output {text:?}: {e}"));
        assert_eq!(fresh, value, "case {case}: round-trip changed {text:?}");
        let reused = slab
            .parse(text.as_bytes())
            .unwrap_or_else(|e| panic!("case {case}: reused slab rejected {text:?}: {e}"))
            .to_value();
        assert_eq!(reused, value, "case {case}: reused-slab round-trip changed {text:?}");
    }
}

/// Whether every number in `value` is finite.  A number beyond the `f64`
/// range parses to ±infinity, and the serialiser renders that as `inf`,
/// which is not JSON, so such a value has no text to round-trip through.
fn all_finite(value: &JsonValue) -> bool {
    match value {
        JsonValue::Num(n) => n.is_finite(),
        JsonValue::Arr(items) => items.iter().all(all_finite),
        JsonValue::Obj(fields) => fields.iter().all(|(_, v)| all_finite(v)),
        _ => true,
    }
}

/// Parse `bytes`; when it is accepted, assert it was valid UTF-8 and, for
/// a value with finite numbers, that it is a fixed point: it
/// re-serialises and re-parses to an equal value.  Returns whether the
/// fixed point was checked.  Panics fail the test naturally.
fn assert_fixed_point(bytes: &[u8], slab: &mut JsonSlab, context: &str) -> bool {
    let Ok(value) = slab.parse(bytes).map(|r| r.to_value()) else {
        return false;
    };
    // Invalid UTF-8 can only hide inside strings (every other token is
    // ASCII), where the slab validates and rejects it.
    assert!(std::str::from_utf8(bytes).is_ok(), "{context}: accepted invalid UTF-8 {bytes:?}");
    if !all_finite(&value) {
        return false;
    }
    let text = value.to_string();
    let again = JsonValue::parse(&text)
        .unwrap_or_else(|e| panic!("{context}: rejected its own output {text:?}: {e}"));
    assert_eq!(again, value, "{context}: serialise → parse changed {text:?}");
    true
}

#[test]
fn mutated_documents_never_panic_and_accepted_ones_are_fixed_points() {
    let mut rng = Rng::new(0xbad5_eed5);
    let mut slab = JsonSlab::new();
    let mut fixed_points = 0;
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
        fixed_points +=
            usize::from(assert_fixed_point(&bytes, &mut slab, &format!("mutation case {case}")));
    }
    // 51 of the 600 mutants are accepted with finite numbers at this seed.
    assert!(fixed_points >= 40, "only {fixed_points} of 600 mutated documents were checked");
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
        // Raw control characters inside strings (RFC 8259 §7).
        b"\"a\nb\"",
        b"\"\t\"",
        b"\"\x00\"",
        b"{\"label\":\"x\x1fy\"}",
    ];
    for input in must_reject {
        assert!(slab.parse(input).is_err(), "accepted adversarial input {input:?}");
    }
    // Nesting at the depth bound parses; one level beyond is rejected
    // (by the explicit bound — not a stack overflow).  The innermost
    // value sits at depth N-1 for N brackets and the guard trips at
    // depth > MAX_DEPTH, so MAX_DEPTH+1 brackets is the last accepted.
    let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    assert!(slab.parse(at_limit.as_bytes()).is_ok());
    let beyond = format!("{}{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
    assert!(slab.parse(beyond.as_bytes()).is_err());
    // Unclosed pathological nesting (the classic parser-killer) errors
    // out at the depth bound instead of recursing to a crash.
    let unclosed = "[".repeat(100_000);
    assert!(slab.parse(unclosed.as_bytes()).is_err());
    let mixed = "{\"k\":[".repeat(50_000);
    assert!(slab.parse(mixed.as_bytes()).is_err());
    // Huge numbers saturate to f64 infinity (std's parse semantics)
    // rather than erroring or hanging.
    let nines = "9".repeat(400);
    for (huge, inf) in
        [("1e309", f64::INFINITY), ("-1e309", f64::NEG_INFINITY), (&nines, f64::INFINITY)]
    {
        assert_eq!(JsonValue::parse(huge).unwrap(), JsonValue::Num(inf), "{huge}");
    }
    // Lone surrogates decode to U+FFFD.
    let surrogate = "\"\\ud800 and \\udfff\"";
    assert_eq!(
        slab.parse(surrogate.as_bytes()).unwrap().to_value(),
        JsonValue::from("\u{fffd} and \u{fffd}")
    );
}

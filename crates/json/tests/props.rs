//! Property tests for the codec: generated values survive
//! `render → parse` unchanged, `f64` bits included.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rcr_json::{parse, JsonValue};

/// Characters that stress the string writer: quotes, escapes, controls,
/// and multi-byte UTF-8.
const TRICKY_CHARS: [char; 12] = [
    '"', '\\', '/', '\n', '\r', '\t', '\u{08}', '\u{0C}', '\u{01}', 'λ', '—', '😀',
];

/// Finite `f64`s at the edges of the format.
const EDGE_FLOATS: [f64; 8] = [
    0.0,
    -0.0,
    5e-324,
    f64::MIN_POSITIVE,
    f64::MAX,
    -f64::MAX,
    0.1,
    1e21,
];

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn string(rng: &mut TestRng) -> String {
    let len = below(rng, 12);
    (0..len)
        .map(|_| match below(rng, 3) {
            0 => TRICKY_CHARS[below(rng, TRICKY_CHARS.len() as u64) as usize],
            1 => char::from(b'a' + below(rng, 26) as u8),
            _ => char::from_u32(below(rng, 0x11_0000) as u32).unwrap_or('?'),
        })
        .collect()
}

fn number(rng: &mut TestRng) -> f64 {
    match below(rng, 4) {
        0 => EDGE_FLOATS[below(rng, EDGE_FLOATS.len() as u64) as usize],
        // Integral values, which print without a fraction.
        1 => {
            (rng.next_u64() >> below(rng, 64)) as f64 * if below(rng, 2) == 0 { 1.0 } else { -1.0 }
        }
        _ => loop {
            let f = f64::from_bits(rng.next_u64());
            if f.is_finite() {
                break f;
            }
        },
    }
}

fn value(rng: &mut TestRng, depth: u32) -> JsonValue {
    let kinds = if depth == 0 { 5 } else { 7 };
    match below(rng, kinds) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(below(rng, 2) == 1),
        2 => JsonValue::Number(number(rng)),
        3 => JsonValue::UInt(rng.next_u64() >> below(rng, 64)),
        4 => JsonValue::String(string(rng)),
        5 => JsonValue::Array((0..below(rng, 5)).map(|_| value(rng, depth - 1)).collect()),
        // Keys may repeat: the object keeps every entry in order.
        _ => JsonValue::Object(
            (0..below(rng, 5))
                .map(|_| {
                    let key = if below(rng, 4) == 0 {
                        "k".to_string()
                    } else {
                        string(rng)
                    };
                    (key, value(rng, depth - 1))
                })
                .collect(),
        ),
    }
}

/// An arbitrary document up to four levels deep.
struct Documents;

impl Strategy for Documents {
    type Value = JsonValue;
    fn generate(&self, rng: &mut TestRng) -> JsonValue {
        value(rng, 4)
    }
}

/// `PartialEq` plus identical `f64` bits (`PartialEq` has `0.0 == -0.0`).
fn same_bits(a: &JsonValue, b: &JsonValue) -> bool {
    match (a, b) {
        (JsonValue::Number(x), JsonValue::Number(y)) => x.to_bits() == y.to_bits(),
        (JsonValue::Array(x), JsonValue::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_bits(p, q))
        }
        (JsonValue::Object(x), JsonValue::Object(y)) => {
            x.iter().count() == y.iter().count()
                && x.iter()
                    .zip(y.iter())
                    .all(|((kx, vx), (ky, vy))| kx == ky && same_bits(vx, vy))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn render_then_parse_is_the_identity(doc in Documents) {
        let text = doc.render();
        let back = parse(&text);
        prop_assert!(back.is_ok(), "{text:?}: {back:?}");
        let back = back.unwrap();
        prop_assert!(same_bits(&back, &doc), "{text:?} came back as {back:?}");
        // Rendering is a normal form.
        prop_assert_eq!(back.render(), text);
    }
}

//! Untrusted text cannot panic the parsers that read it: the JSON codec,
//! the wire request/response parsers, and the scenario manifest parsers
//! return `Ok` or `Err` on arbitrary input (proptest).

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rcr::scenarios::{RunManifest, ScenarioManifest};
use rcr::serve::wire;

/// Valid documents that mutations start from, so cases reach deep into
/// each parser instead of failing at the first byte.
fn seeds() -> Vec<String> {
    let run = include_str!("../crates/scenarios/manifests/diurnal_storm.json").to_string();
    let manifest = RunManifest::parse(&run)
        .expect("committed run manifest parses")
        .manifest
        .encode();
    vec![
        r#"{"id":1,"class":"URLLC","deadline_us":5000,"users":3,"rbs":6,"seed":18446744073709551615,"solver":"greedy"}"#.into(),
        r#"{"op":"metrics"}"#.into(),
        r#"{"id":1,"class":"eMBB","outcome":"solved","owners":[0,2,1],"total_rate_bps":12345678.9,"spectral_efficiency":0.30000000000000004,"qos_satisfied":true,"batch_size":4,"queue_us":12,"solve_us":345}"#.into(),
        r#"{"id":2,"class":"mMTC","outcome":"expired","reason":"deadline_missed","phase":"queue","late_by_us":77,"queue_us":0,"solve_us":0}"#.into(),
        manifest,
        run,
    ]
}

/// Fragments that steer mutations toward the codec's edge cases.
const ATOMS: [&str; 26] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "\\u00e9",
    "-",
    "0",
    "1e",
    "e+",
    ".",
    "9007199254740993",
    "18446744073709551616",
    "1e400",
    "true",
    "fals",
    "null",
    " ",
    "\n",
    "λ",
    "\u{0}",
];

fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Arbitrary text: token soup, mutated valid documents, deep nesting,
/// or random characters.
struct HostileText(Vec<String>);

impl Strategy for HostileText {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        match below(rng, 4) {
            0 => (0..below(rng, 40))
                .map(|_| ATOMS[below(rng, ATOMS.len())])
                .collect(),
            1 => {
                let mut chars: Vec<char> = self.0[below(rng, self.0.len())].chars().collect();
                for _ in 0..=below(rng, 4) {
                    let at = below(rng, chars.len() + 1);
                    match below(rng, 3) {
                        0 => {
                            let atom = ATOMS[below(rng, ATOMS.len())];
                            chars.splice(at..at, atom.chars());
                        }
                        1 => {
                            let end = (at + below(rng, 8)).min(chars.len());
                            chars.drain(at..end);
                        }
                        _ => chars.truncate(at),
                    }
                }
                chars.into_iter().collect()
            }
            2 => {
                let open = ["[", "{\"a\":", "[{\"k\":"][below(rng, 3)];
                open.repeat(1 + below(rng, 20_000))
            }
            _ => (0..below(rng, 64))
                .map(|_| char::from_u32(rng.next_u64() as u32 % 0x11_0000).unwrap_or('\u{FFFD}'))
                .collect(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn parsers_never_panic_on_arbitrary_text(text in HostileText(seeds())) {
        let _ = rcr_json::parse(&text);
        let _ = wire::parse_request(&text);
        let _ = wire::parse_response(&text);
        let _ = ScenarioManifest::parse(&text);
        let _ = RunManifest::parse(&text);
    }
}

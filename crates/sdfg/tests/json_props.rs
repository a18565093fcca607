//! Property tests for the SDFG loader's fail-closed contract: a
//! truncated or mutated `qt_simulation_sdfg()` document makes
//! `Sdfg::from_json` return `Err` or an `Sdfg` that re-serializes to a
//! stable document; it never panics.

use proptest::prelude::*;
use qt_sdfg::{qt_simulation_sdfg, Sdfg};

/// Fragments spliced over a whitespace-separated token of the document:
/// variant tags, operator tags, field names and adversarial values.
const TOKENS: &[&str] = &[
    "\"Map\"",
    "\"Compute\"",
    "\"BatchedGemm\"",
    "\"MatMul\"",
    "\"Index\"",
    "\"Range\"",
    "\"Indirect\"",
    "\"Complex128\"",
    "\"+\"",
    "\"min\"",
    "\"stride\":",
    "\"name\":",
    "null",
    "true",
    "0",
    "-1",
    "1.5",
    "1e300",
    "9007199254740993",
    "[",
    "]",
    "{",
    "}",
    "[]",
    "{}",
    ",",
    ":",
    "\"\"",
    "\"\u{1F980}\"",
    "\"\\u12\"",
];

/// Load `doc`; when it loads, its serialization must load back to the
/// same text.
fn check(doc: &str) {
    if let Ok(sdfg) = Sdfg::from_json(doc) {
        let again = sdfg.to_json();
        let back = Sdfg::from_json(&again).expect("a loaded SDFG re-serializes");
        prop_assert_eq!(back.to_json(), again);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncated_documents_fail_closed(cut in any::<u32>()) {
        let doc = qt_simulation_sdfg().to_json();
        let cut = cut as usize % doc.len();
        prop_assert!(Sdfg::from_json(&doc[..cut]).is_err());
    }

    #[test]
    fn byte_mutated_documents_fail_closed(
        picks in proptest::collection::vec(any::<u32>(), 1..4),
        byte in 0u8..=255u8,
    ) {
        let mut bytes = qt_simulation_sdfg().to_json().into_bytes();
        for (i, &p) in picks.iter().enumerate() {
            let at = p as usize % bytes.len();
            bytes[at] = byte.wrapping_add(i as u8);
        }
        check(&String::from_utf8_lossy(&bytes));
    }

    /// One line's value replaced by a token. The line is drawn key first
    /// (uniform over the document's distinct field keys, array items
    /// counting as one more key), so rare fields such as `start` are hit
    /// as often as the thousands of expression items.
    #[test]
    fn token_mutated_documents_fail_closed(
        key_pick in any::<u32>(),
        line_pick in any::<u32>(),
        token in 0usize..TOKENS.len(),
    ) {
        let doc = qt_simulation_sdfg().to_json();
        let mut lines: Vec<String> = doc.lines().map(str::to_string).collect();
        let mut keys: Vec<&str> = doc.lines().map(key_of).collect();
        keys.sort_unstable();
        keys.dedup();
        let key = keys[key_pick as usize % keys.len()];
        let hits: Vec<usize> = (0..lines.len()).filter(|&i| key_of(&lines[i]) == key).collect();
        let target = hits[line_pick as usize % hits.len()];
        let comma = if lines[target].ends_with(',') { "," } else { "" };
        let prefix = if key.is_empty() { String::new() } else { format!("{key}: ") };
        lines[target] = format!("{prefix}{}{comma}", TOKENS[token]);
        check(&lines.join("\n"));
    }
}

/// The quoted key a pretty-printed line starts with, or `""` for an
/// array item.
fn key_of(line: &str) -> &str {
    line.trim_start().split_once(": ").map_or("", |(k, _)| k)
}

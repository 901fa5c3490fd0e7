//! Arbitrary-input fuzzing of the JSON boundary: [`Json::parse`] must
//! return `Err` on untrusted text, never panic, and every value it does
//! accept must survive the writer — re-serialized and re-parsed, it is
//! the same value.

use proptest::prelude::*;
use wi_num::rng::mix;
use wi_sweep::json::Json;

/// Bytes that keep random input close enough to JSON that the parser's
/// accepting paths run too, not only its first-byte rejections.
const JSONISH: &[u8] = b"{}[]\",:0123456789-+.eE \t\n\\/ubfnrtlsa";

/// `len` bytes from a SplitMix64 stream seeded with `seed`: mostly drawn
/// from [`JSONISH`], the rest arbitrary (including invalid UTF-8, which
/// `from_utf8_lossy` turns into U+FFFD).
fn fuzz_text(seed: u64, len: usize) -> String {
    let bytes: Vec<u8> = (0..len as u64)
        .map(|i| {
            let r = mix(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            if r.is_multiple_of(8) {
                (r >> 8) as u8
            } else {
                JSONISH[(r >> 8) as usize % JSONISH.len()]
            }
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Checks the parser contract on one input.
fn check(text: &str) -> Result<(), TestCaseError> {
    if let Ok(value) = Json::parse(text) {
        let written = value.to_string();
        let back = Json::parse(&written);
        prop_assert!(
            back.as_ref() == Ok(&value),
            "{text:?} parsed to {value:?}, wrote {written:?}, re-parsed to {back:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn parse_never_panics_and_accepted_values_round_trip(
        seed in 0u64..u64::MAX,
        len in 0usize..48,
    ) {
        let text = fuzz_text(seed, len);
        check(&text)?;
        // Wrapped in an array and an object, the same bytes reach the
        // parser's nested paths.
        check(&format!("[{text}]"))?;
        check(&format!("{{\"k\":{text}}}"))?;
    }
}

//! Property tests for the spill tier's binary `Summary` encoding:
//! encode → decode must be the identity across generated census shapes,
//! valency sets, and value types (`u64` and width-carrying `WideValue`).
//! Segment files store these records as written.  The last two
//! properties pin the LZ codec (`twostep_model::codec::{compress,
//! decompress}`), which no segment uses and which stays only for the
//! benchmark's codec rows: it must be the identity around a summary, and
//! corrupt or truncated compressed payloads must never panic, never
//! allocate past the caller's bound, and never round-trip to a
//! *different* summary.

use proptest::prelude::*;
use twostep_model::codec::{compress, decompress};
use twostep_model::WideValue;
use twostep_modelcheck::{decode_summary, encode_summary, SpillCodec, Summary};

fn option_round() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![
        Just(None),
        (0u32..100_000).prop_map(Some),
        Just(Some(u32::MAX)),
    ]
}

fn roundtrip<O: SpillCodec + Clone + Eq + std::fmt::Debug>(
    summary: &Summary<O>,
) -> Result<(), TestCaseError> {
    let mut buf = Vec::new();
    encode_summary(summary, &mut buf);
    let back: Summary<O> = match decode_summary(&buf) {
        Some(back) => back,
        None => return Err(TestCaseError::fail("encoding failed to decode")),
    };
    prop_assert_eq!(&back, summary);
    Ok(())
}

proptest! {
    #[test]
    fn u64_summaries_roundtrip(
        terminals in any::<u64>(),
        rounds in prop::collection::vec(option_round(), 0..=9),
        decided in prop::collection::vec(any::<u64>(), 0..=6),
        violating in any::<bool>(),
    ) {
        roundtrip(&Summary { terminals, worst_round_by_f: rounds, decided, violating })?;
    }

    #[test]
    fn wide_value_summaries_roundtrip(
        terminals in any::<u64>(),
        rounds in prop::collection::vec(option_round(), 0..=9),
        raw in prop::collection::vec((1u32..=130, any::<u64>()), 0..=6),
        violating in any::<bool>(),
    ) {
        // Valency sets carry *distinct* values, but the codec must not
        // care; feed it whatever the generator produced.
        let decided: Vec<WideValue> =
            raw.into_iter().map(|(bits, ident)| WideValue::new(bits, ident)).collect();
        roundtrip(&Summary { terminals, worst_round_by_f: rounds, decided, violating })?;
    }

    #[test]
    fn truncation_never_decodes(
        terminals in any::<u64>(),
        rounds in prop::collection::vec(option_round(), 0..=5),
        decided in prop::collection::vec(any::<u64>(), 0..=4),
        violating in any::<bool>(),
        cut in any::<u64>(),
    ) {
        let summary = Summary { terminals, worst_round_by_f: rounds, decided, violating };
        let mut buf = Vec::new();
        encode_summary(&summary, &mut buf);
        // Any strict prefix must be rejected, as must trailing garbage.
        let cut = (cut as usize) % buf.len();
        prop_assert!(decode_summary::<u64>(&buf[..cut]).is_none());
        buf.push(0xAB);
        prop_assert!(decode_summary::<u64>(&buf).is_none());
    }

    /// Compressed `Summary` records: compress → decompress → decode is
    /// the identity.
    #[test]
    fn compressed_summaries_roundtrip(
        terminals in any::<u64>(),
        rounds in prop::collection::vec(option_round(), 0..=9),
        raw in prop::collection::vec((1u32..=130, any::<u64>()), 0..=6),
        violating in any::<bool>(),
    ) {
        let decided: Vec<WideValue> =
            raw.into_iter().map(|(bits, ident)| WideValue::new(bits, ident)).collect();
        let summary = Summary { terminals, worst_round_by_f: rounds, decided, violating };
        let mut buf = Vec::new();
        encode_summary(&summary, &mut buf);
        let packed = compress(&buf);
        let unpacked = match decompress(&packed, buf.len().max(1)) {
            Some(bytes) => bytes,
            None => return Err(TestCaseError::fail("compressed record failed to decompress")),
        };
        prop_assert_eq!(&unpacked, &buf, "decompression inverts compression");
        let back: Summary<WideValue> = match decode_summary(&unpacked) {
            Some(back) => back,
            None => return Err(TestCaseError::fail("decompressed record failed to decode")),
        };
        prop_assert_eq!(&back, &summary);
    }

    /// Corrupt or truncated compressed payloads: `decompress` either
    /// rejects them (`None`) or yields bytes that are *not* the original
    /// record — never a panic, never an allocation past the bound.
    #[test]
    fn mangled_compressed_summaries_never_panic(
        terminals in any::<u64>(),
        rounds in prop::collection::vec(option_round(), 0..=5),
        decided in prop::collection::vec(any::<u64>(), 0..=4),
        violating in any::<bool>(),
        flip_at in any::<u64>(),
        flip_mask in 1u8..=255,
        cut in any::<u64>(),
    ) {
        let summary = Summary { terminals, worst_round_by_f: rounds, decided, violating };
        let mut buf = Vec::new();
        encode_summary(&summary, &mut buf);
        let packed = compress(&buf);

        // Truncation: any strict prefix must decompress to None.
        let cut = (cut as usize) % packed.len();
        prop_assert!(
            decompress(&packed[..cut], buf.len()).is_none(),
            "a truncated compressed payload must not decompress"
        );

        // Bit rot: must not panic, and any output respects the caller's
        // allocation bound.  (Equality with the original is possible for
        // a lucky flip — e.g. a match distance redirected into an equal
        // byte run — so the codec is no integrity check.)
        let mut damaged = packed.clone();
        let position = (flip_at as usize) % damaged.len();
        damaged[position] ^= flip_mask;
        if let Some(bytes) = decompress(&damaged, buf.len()) {
            prop_assert!(
                bytes.len() <= buf.len(),
                "decompression of damaged input exceeded the caller's bound"
            );
        }
    }
}

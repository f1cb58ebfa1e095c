//! Property tests for the append-composition rule's hash-side twin:
//! resuming a fingerprint across a chain of appends must equal hashing
//! the folded CSV text from scratch, whatever the base's last line
//! looks like.

use proptest::prelude::*;
use ziggy_durable::{combine_csv, combine_fingerprint, ends_mid_line};
use ziggy_store::fnv1a_64;

/// A base CSV in one of three shapes: as sampled (which includes the
/// empty string), forced to end with a newline, or stripped of every
/// trailing newline.
fn base_csv() -> impl Strategy<Value = String> {
    ("[a-c0-9,\n]{0,40}", 0..3u8).prop_map(|(text, shape)| match shape {
        0 => text,
        1 if !text.ends_with('\n') => format!("{text}\n"),
        2 => text.trim_end_matches('\n').to_string(),
        _ => text,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn resumed_fingerprint_equals_hash_of_folded_csv(
        base in base_csv(),
        batches in prop::collection::vec("[a-c0-9,\n]{0,12}", 0..8)
    ) {
        let mut csv = base.clone();
        let mut fingerprint = fnv1a_64(base.as_bytes());
        let mut mid_line = ends_mid_line(&base);
        for rows in &batches {
            csv = combine_csv(&csv, rows);
            fingerprint = combine_fingerprint(fingerprint, mid_line, rows);
            // The composed text ends mid-line exactly when the rows do:
            // a missing base newline is always inserted before them.
            mid_line = ends_mid_line(rows);
            prop_assert_eq!(fingerprint, fnv1a_64(csv.as_bytes()));
            prop_assert_eq!(mid_line, ends_mid_line(&csv));
        }
    }
}

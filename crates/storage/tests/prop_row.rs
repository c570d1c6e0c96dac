//! Property test for the row codec: bytes it did not write decode to an
//! error, through either sink, and never panic.

use proptest::prelude::*;
use remem_storage::{Row, Value};

fn arb_row() -> impl Strategy<Value = Row> {
    prop::collection::vec(
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            (-1e12f64..1e12).prop_map(Value::Float),
            "[a-z é€]{0,12}".prop_map(Value::Str),
        ],
        0..8,
    )
    .prop_map(Row::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The encoding round-trips through `decode` and `decode_into`; every
    /// truncation of it is an error; every single-byte overwrite decodes to
    /// `Ok` or `Err` without panicking.
    #[test]
    fn foreign_bytes_never_panic_the_decoders(
        row in arb_row(),
        mut scratch in arb_row(),
        mask in 1u16..256,
    ) {
        let bytes = row.to_bytes();
        prop_assert_eq!(Row::decode(&bytes), Ok((row.clone(), bytes.len())));
        prop_assert_eq!(scratch.decode_into(&bytes), Ok(bytes.len()));
        prop_assert_eq!(&scratch, &row);
        for cut in 0..bytes.len() {
            prop_assert!(Row::decode(&bytes[..cut]).is_err());
            prop_assert!(scratch.decode_into(&bytes[..cut]).is_err());
        }
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= mask as u8;
            let _ = Row::decode(&bad);
            let _ = scratch.decode_into(&bad);
        }
    }
}

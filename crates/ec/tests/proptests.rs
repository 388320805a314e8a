//! Property-based tests for the GF(2^8) field and the Reed-Solomon codec.

use fusion_ec::gf::Gf256;
use fusion_ec::ErasureCode;
use proptest::prelude::*;

proptest! {
    #[test]
    fn gf_add_commutative(a: u8, b: u8) {
        prop_assert_eq!(Gf256(a) + Gf256(b), Gf256(b) + Gf256(a));
    }

    #[test]
    fn gf_mul_commutative(a: u8, b: u8) {
        prop_assert_eq!(Gf256(a) * Gf256(b), Gf256(b) * Gf256(a));
    }

    #[test]
    fn gf_mul_associative(a: u8, b: u8, c: u8) {
        let (a, b, c) = (Gf256(a), Gf256(b), Gf256(c));
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn gf_distributive(a: u8, b: u8, c: u8) {
        let (a, b, c) = (Gf256(a), Gf256(b), Gf256(c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn gf_sub_is_add(a: u8, b: u8) {
        prop_assert_eq!(Gf256(a) - Gf256(b), Gf256(a) + Gf256(b));
    }

    #[test]
    fn gf_div_mul_roundtrip(a: u8, b in 1u8..) {
        let (a, b) = (Gf256(a), Gf256(b));
        prop_assert_eq!((a / b) * b, a);
    }

    #[test]
    fn rs_roundtrip_arbitrary_erasures(
        data in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 6),
        erase in prop::collection::btree_set(0usize..9, 0..=3),
    ) {
        let rs = ErasureCode::new(9, 6, 0).unwrap();
        let width = data.iter().map(Vec::len).max().unwrap_or(0);
        let parity = rs.encode(&data);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .map(|d| {
                // Store padded so equality below is straightforward.
                let mut d = d.clone();
                d.resize(width, 0);
                Some(d)
            })
            .chain(parity.iter().cloned().map(Some))
            .collect();
        let full: Vec<Vec<u8>> = shards.iter().map(|s| s.clone().unwrap()).collect();
        for &e in &erase {
            shards[e] = None;
        }
        rs.reconstruct(&mut shards, width).unwrap();
        for (i, s) in shards.iter().enumerate() {
            prop_assert_eq!(s.as_deref(), Some(&full[i][..]));
        }
    }

    #[test]
    fn rs_verify_encoded_stripes(
        data in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..64), 4),
    ) {
        let rs = ErasureCode::new(6, 4, 0).unwrap();
        let width = data.iter().map(Vec::len).max().unwrap();
        let parity = rs.encode(&data);
        let shards: Vec<Vec<u8>> = data
            .into_iter()
            .map(|mut d| { d.resize(width, 0); d })
            .chain(parity)
            .collect();
        prop_assert!(rs.verify(&shards));
    }

    #[test]
    fn rs_parity_width_is_max_data_len(
        lens in prop::collection::vec(0usize..500, 6),
    ) {
        let rs = ErasureCode::new(9, 6, 0).unwrap();
        let data: Vec<Vec<u8>> = lens.iter().map(|&l| vec![0xAB; l]).collect();
        let parity = rs.encode(&data);
        let width = *lens.iter().max().unwrap();
        prop_assert!(parity.iter().all(|p| p.len() == width));
    }
}

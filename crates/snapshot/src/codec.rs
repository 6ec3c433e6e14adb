//! The wire rules every section payload follows (DESIGN.md §11), stated
//! once as [`Codec`] impls for the shapes the format uses:
//!
//! * integers little-endian at their width; `usize` as `u64`; `f64` as
//!   its raw IEEE-754 bits; `bool` as one byte that must be 0 or 1;
//! * `Option<T>`: a 0/1 tag byte, then the value when the tag is 1;
//! * `Vec<T>`/`VecDeque<T>`: a `u64` count checked by
//!   [`Reader::seq_len`], then the items;
//! * `BTreeSet`/`BTreeMap`: the same, in ascending key order, and decode
//!   rejects keys that are not strictly ascending, so decoding then
//!   re-encoding is byte-stable;
//! * tuples and fixed arrays: their items in order, with no count.
//!
//! A struct's codec is then one trait call per field in wire order.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::{Reader, SnapshotError, Writer};

/// A value with a fixed checkpoint wire layout.
pub trait Codec: Sized {
    /// Append the value's wire form.
    fn encode(&self, w: &mut Writer);
    /// Read one value back; malformed input is a typed error, never a
    /// panic.
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError>;
}

macro_rules! primitive_codec {
    ($($t:ty => $put:ident, $get:ident;)*) => {$(
        impl Codec for $t {
            #[inline]
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
                r.$get(stringify!($t))
            }
        }
    )*};
}

primitive_codec! {
    u8 => put_u8, u8;
    u16 => put_u16, u16;
    u32 => put_u32, u32;
    u64 => put_u64, u64;
    usize => put_usize, usize;
    f64 => put_f64, f64;
    bool => put_bool, bool;
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        if r.bool("Option")? {
            T::decode(r).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(self.len(), self, |w, v| v.encode(w));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        r.seq("Vec", T::decode)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(self.len(), self, |w, v| v.encode(w));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        r.seq("VecDeque", T::decode).map(VecDeque::from)
    }
}

impl<T: Codec + Ord> Codec for BTreeSet<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(self.len(), self, |w, v| v.encode(w));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let items = r.seq("BTreeSet", T::decode)?;
        if items.windows(2).any(|p| p[1] <= p[0]) {
            return Err(SnapshotError::Corrupt {
                context: "BTreeSet",
            });
        }
        Ok(items.into_iter().collect())
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(self.len(), self, |w, (k, v)| {
            k.encode(w);
            v.encode(w);
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let entries = r.seq("BTreeMap", <(K, V)>::decode)?;
        if entries.windows(2).any(|p| p[1].0 <= p[0].0) {
            return Err(SnapshotError::Corrupt {
                context: "BTreeMap",
            });
        }
        Ok(entries.into_iter().collect())
    }
}

macro_rules! tuple_codec {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            #[allow(non_snake_case)]
            fn encode(&self, w: &mut Writer) {
                let ($($name,)+) = self;
                $($name.encode(w);)+
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    )*};
}

tuple_codec! {
    (A, B)
    (A, B, C)
}

impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    fn encode(&self, w: &mut Writer) {
        for v in self {
            v.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::decode(r)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) -> Vec<u8> {
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(T::decode(&mut r).unwrap(), v);
        r.finish("roundtrip").unwrap();
        bytes
    }

    #[test]
    fn shapes_roundtrip_with_the_documented_bytes() {
        assert_eq!(roundtrip(Some(7u16)), vec![1, 7, 0]);
        assert_eq!(roundtrip(None::<u16>), vec![0]);
        assert_eq!(roundtrip(vec![1u8, 2]), vec![2, 0, 0, 0, 0, 0, 0, 0, 1, 2]);
        assert_eq!(roundtrip((3u8, true)), vec![3, 1]);
        assert_eq!(roundtrip([1u8, 2, 3]), vec![1, 2, 3]);
        roundtrip(VecDeque::from(vec![(1u32, 2.5f64)]));
        roundtrip(BTreeSet::from([(1u16, 2u16), (1, 3)]));
        roundtrip(BTreeMap::from([(4u64, vec![1u16]), (9, Vec::new())]));
        roundtrip((1usize, -0.0f64, u64::MAX));
    }

    #[test]
    fn bad_tags_and_unsorted_keys_are_typed_errors() {
        let mut r = Reader::new(&[2, 0, 0]);
        assert!(matches!(
            Option::<u16>::decode(&mut r),
            Err(SnapshotError::InvalidTag { tag: 2, .. })
        ));
        let mut w = Writer::new();
        vec![5u16, 5].encode(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            BTreeSet::<u16>::decode(&mut Reader::new(&bytes)),
            Err(SnapshotError::Corrupt { .. })
        ));
        let mut w = Writer::new();
        vec![(2u8, 0u8), (1, 0)].encode(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            BTreeMap::<u8, u8>::decode(&mut Reader::new(&bytes)),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_count_the_input_cannot_hold_is_rejected_before_allocating() {
        let mut w = Writer::new();
        w.put_usize(1 << 40);
        let bytes = w.into_bytes();
        assert!(matches!(
            Vec::<u64>::decode(&mut Reader::new(&bytes)),
            Err(SnapshotError::Corrupt { .. })
        ));
        // A plausible count of wide items still allocates no more than
        // the remaining input: it fails at the end of input instead.
        let mut w = Writer::new();
        w.put_usize(64);
        w.put_bytes(&[0; 56]);
        let bytes = w.into_bytes();
        assert!(matches!(
            Vec::<[u64; 8]>::decode(&mut Reader::new(&bytes)),
            Err(SnapshotError::UnexpectedEof { .. })
        ));
    }
}

//! The wire encoding of scalars. [`Scalar`] itself, and what the
//! operators compute on it, live in `pdc-lang`.

use pdc_machine::Word;

pub use pdc_lang::Scalar;

const TAG_INT: Word = 0;
const TAG_FLOAT: Word = 1;
const TAG_BOOL: Word = 2;

/// Encode scalars into machine words (two words per scalar: a type tag
/// and the payload bits). This plays the role of the iPSC's message
/// packing; the cost model charges per word.
pub fn encode(values: &[Scalar]) -> Vec<Word> {
    let mut out = Vec::with_capacity(values.len() * 2);
    encode_into(values, &mut out);
    out
}

/// [`encode`] into a caller-owned buffer, appending. Hot send paths
/// reuse one scratch allocation across the whole run.
pub fn encode_into(values: &[Scalar], out: &mut Vec<Word>) {
    out.reserve(values.len() * 2);
    for v in values {
        match v {
            Scalar::Int(x) => {
                out.push(TAG_INT);
                out.push(*x);
            }
            Scalar::Float(x) => {
                out.push(TAG_FLOAT);
                out.push(x.to_bits() as Word);
            }
            Scalar::Bool(x) => {
                out.push(TAG_BOOL);
                out.push(*x as Word);
            }
        }
    }
}

/// Decode a word stream produced by [`encode`]; `None` on a malformed
/// stream (odd length or unknown tag).
pub fn decode(words: &[Word]) -> Option<Vec<Scalar>> {
    let mut out = Vec::with_capacity(words.len() / 2);
    decode_into(words, &mut out).then_some(out)
}

/// [`decode`] into a caller-owned buffer, appending; `false` on a
/// malformed stream (the buffer may then hold a decoded prefix).
pub fn decode_into(words: &[Word], out: &mut Vec<Scalar>) -> bool {
    if !words.len().is_multiple_of(2) {
        return false;
    }
    out.reserve(words.len() / 2);
    for pair in words.chunks_exact(2) {
        let v = match pair[0] {
            TAG_INT => Scalar::Int(pair[1]),
            TAG_FLOAT => Scalar::Float(f64::from_bits(pair[1] as u64)),
            TAG_BOOL => Scalar::Bool(pair[1] != 0),
            _ => return false,
        };
        out.push(v);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed() {
        let vals = vec![
            Scalar::Int(-7),
            Scalar::Float(2.5),
            Scalar::Bool(true),
            Scalar::Float(f64::NEG_INFINITY),
        ];
        assert_eq!(decode(&encode(&vals)).unwrap(), vals);
    }

    #[test]
    fn malformed_streams_rejected() {
        assert!(decode(&[0]).is_none()); // odd length
        assert!(decode(&[99, 0]).is_none()); // unknown tag
    }
}

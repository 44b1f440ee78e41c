//! Parameter serialization: the little-endian byte form of a model's
//! parameters, streamed straight out of `visit` and into `visit_mut`.
//!
//! Each parameter is written as `rows` and `cols` (`u32` LE) followed by
//! `rows·cols` `f32` LE, in visit order. No names are stored: a reader
//! matches parameters by order and shape, and writes each tensor into the
//! buffer the model already owns, so loading allocates nothing per tensor.

use crate::param::Param;

/// Appends every parameter yielded by `visit` to `out`.
///
/// # Example
///
/// ```rust
/// use sns_nn::{read_params, write_params, ByteReader, Linear, ParamRegistry};
///
/// let mut rng = sns_rt::rng::StdRng::seed_from_u64(0);
/// let mut reg = ParamRegistry::new();
/// let layer = Linear::new(&mut reg, 4, 2, &mut rng);
/// let mut bytes = Vec::new();
/// write_params(&mut bytes, |f| layer.visit(f));
/// let mut layer2 = Linear::new(&mut reg, 4, 2, &mut rng);
/// let mut r = ByteReader::new(&bytes);
/// read_params(&mut r, |f| layer2.visit_mut(f)).unwrap();
/// r.finish().unwrap();
/// let mut again = Vec::new();
/// write_params(&mut again, |f| layer2.visit(f));
/// assert_eq!(bytes, again);
/// ```
pub fn write_params(out: &mut Vec<u8>, visit: impl FnOnce(&mut dyn FnMut(&Param))) {
    visit(&mut |p: &Param| {
        // A dimension past u32 cannot exist in memory next to its data;
        // were it to, the truncated shape fails the reader's shape check.
        out.extend_from_slice(&(p.value.rows() as u32).to_le_bytes());
        out.extend_from_slice(&(p.value.cols() as u32).to_le_bytes());
        for v in p.value.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    });
}

/// Restores parameters in visit order from `r`, checking each tensor's
/// shape against the parameter it lands in before reading its data.
///
/// # Errors
///
/// Returns a description of the first mismatch (shape or truncation);
/// parameters before it have been overwritten. Bytes left after the last
/// parameter are the caller's to check ([`ByteReader::finish`]).
pub fn read_params(
    r: &mut ByteReader<'_>,
    visit: impl FnOnce(&mut dyn FnMut(&mut Param)),
) -> Result<(), String> {
    let mut idx = 0usize;
    let mut error: Option<String> = None;
    visit(&mut |p: &mut Param| {
        if error.is_some() {
            return;
        }
        if r.remaining() == 0 {
            error = Some(format!("the stream holds only {idx} tensors"));
            return;
        }
        let shape = match (r.u32(), r.u32()) {
            (Ok(rows), Ok(cols)) => (rows as usize, cols as usize),
            (Err(e), _) | (_, Err(e)) => {
                error = Some(e);
                return;
            }
        };
        if shape != (p.value.rows(), p.value.cols()) {
            error = Some(format!(
                "tensor {idx} shape {}x{} does not match parameter `{}` {}x{}",
                shape.0,
                shape.1,
                p.name,
                p.value.rows(),
                p.value.cols()
            ));
            return;
        }
        let data = p.value.as_mut_slice();
        match r.take(data.len().saturating_mul(4)) {
            Ok(bytes) => {
                for (v, b) in data.iter_mut().zip(bytes.chunks_exact(4)) {
                    *v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                }
                idx += 1;
            }
            Err(e) => error = Some(e),
        }
    });
    error.map_or(Ok(()), Err)
}

/// A cursor over little-endian bytes whose reads fail, never panic, past
/// the end.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// Fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(format!(
                "truncated: {n} bytes wanted at offset {}, {} left",
                self.pos,
                self.remaining()
            ));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// The next `u32`.
    ///
    /// # Errors
    ///
    /// Fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next `u64`.
    ///
    /// # Errors
    ///
    /// Fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `f32`.
    ///
    /// # Errors
    ///
    /// Fewer than 4 bytes remain.
    pub fn f32(&mut self) -> Result<f32, String> {
        self.array().map(f32::from_le_bytes)
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// Bytes remain after the last field.
    pub fn finish(self) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after offset {}", self.pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::param::ParamRegistry;
    use sns_rt::rng::StdRng;

    fn bytes_of(l: &Linear) -> Vec<u8> {
        let mut out = Vec::new();
        write_params(&mut out, |f| l.visit(f));
        out
    }

    #[test]
    fn round_trip_through_bytes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut reg = ParamRegistry::new();
        let l = Linear::new(&mut reg, 3, 3, &mut rng);
        let mut back = Linear::new(&mut reg, 3, 3, &mut rng);
        let bytes = bytes_of(&l);
        // w 3x3 and b 1x3, each behind an 8-byte shape.
        assert_eq!(bytes.len(), 8 + 9 * 4 + 8 + 3 * 4);
        let mut r = ByteReader::new(&bytes);
        read_params(&mut r, |f| back.visit_mut(f)).unwrap();
        r.finish().unwrap();
        assert_eq!(bytes_of(&back), bytes);
    }

    #[test]
    fn corrupt_bytes_are_an_error() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut reg = ParamRegistry::new();
        let mut l = Linear::new(&mut reg, 2, 2, &mut rng);
        let bytes = bytes_of(&l);
        // Cut inside the first shape, inside the first tensor's data, and
        // inside the second tensor's data.
        for cut in [3, 8 + 5, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            let err = read_params(&mut r, |f| l.visit_mut(f)).unwrap_err();
            assert!(err.contains("truncated"), "cut {cut}: {err}");
        }
        // A 2x2 shape that claims more data than the stream holds is
        // refused by shape, before its data is read.
        let mut huge = bytes.clone();
        huge[..8].copy_from_slice(&[0xff; 8]);
        let err = read_params(&mut ByteReader::new(&huge), |f| l.visit_mut(f)).unwrap_err();
        assert!(err.contains("4294967295x4294967295"), "{err}");
        // A trailing byte is the caller's to refuse.
        let mut long = bytes.clone();
        long.push(0);
        let mut r = ByteReader::new(&long);
        read_params(&mut r, |f| l.visit_mut(f)).unwrap();
        assert!(r.finish().unwrap_err().contains("1 trailing"));
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut reg = ParamRegistry::new();
        let small = Linear::new(&mut reg, 2, 2, &mut rng);
        let mut big = Linear::new(&mut reg, 4, 4, &mut rng);
        let bytes = bytes_of(&small);
        let err = read_params(&mut ByteReader::new(&bytes), |f| big.visit_mut(f)).unwrap_err();
        assert!(err.contains("shape"), "{err}");
    }

    #[test]
    fn too_few_tensors_is_an_error() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut reg = ParamRegistry::new();
        let l = Linear::new(&mut reg, 2, 2, &mut rng);
        let mut two = (
            Linear::new(&mut reg, 2, 2, &mut rng),
            Linear::new(&mut reg, 2, 2, &mut rng),
        );
        let bytes = bytes_of(&l);
        let err = read_params(&mut ByteReader::new(&bytes), |f| {
            two.0.visit_mut(f);
            two.1.visit_mut(f);
        })
        .unwrap_err();
        assert!(err.contains("only"), "{err}");
    }
}

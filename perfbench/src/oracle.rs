//! The benchmark's own reference arithmetic, independent of every program
//! path: a seeded generator, an f64 copy of each input matrix that follows
//! the benchmark's own record of updates, the product computed from that
//! copy, and the digests that stand in for stored copies of products.

use smat_formats::{Csr, Dense, Element, F16};

/// SplitMix64: the benchmark's seeded source for right-hand sides, trace
/// order, arrival times and update streams.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005e_ed0f_be4c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A small integer in `[lo, hi]`.
    pub fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// A dense right-hand side of small integers in `[-3, 3]`, drawn from `seed`.
/// Small integers keep every partial sum exact in a wide accumulator.
pub fn rhs(rows: usize, cols: usize, seed: u64) -> Dense<F16> {
    let mut rng = Rng::new(seed);
    Dense::from_fn(rows, cols, |_, _| F16::from_f64(rng.int(-3, 3) as f64))
}

/// The benchmark's f64 copy of one input matrix, row by row, sorted by
/// column. Updates are applied here from the benchmark's own record, never
/// read back from the program.
#[derive(Clone)]
pub struct OracleMatrix {
    ncols: usize,
    rows: Vec<Vec<(usize, f64)>>,
}

impl OracleMatrix {
    pub fn from_csr(a: &Csr<F16>) -> Self {
        let (rp, ci, vals) = (a.row_ptr(), a.col_idx(), a.values());
        let rows = (0..a.nrows())
            .map(|r| {
                let mut row: Vec<(usize, f64)> = (rp[r]..rp[r + 1])
                    .map(|k| (ci[k], vals[k].to_f64()))
                    .filter(|&(_, v)| v != 0.0)
                    .collect();
                row.sort_by_key(|&(c, _)| c);
                row
            })
            .collect();
        OracleMatrix {
            ncols: a.ncols(),
            rows,
        }
    }

    pub fn nrows(&self) -> usize {
        self.rows.len()
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored nonzeros of the current state.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Sets cell `(r, c)` to `v` (`0` removes it).
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        let row = &mut self.rows[r];
        match row.binary_search_by_key(&c, |&(col, _)| col) {
            Ok(i) if v == 0.0 => {
                row.remove(i);
            }
            Ok(i) => row[i].1 = v,
            Err(_) if v == 0.0 => {}
            Err(i) => row.insert(i, (c, v)),
        }
    }

    /// Digest of `round_f16(A·B)` computed in f64 from this copy. The
    /// products of small integers are exact in f64, so the only rounding is
    /// the final one to the f16 output type.
    pub fn product_digest(&self, b: &Dense<F16>) -> u64 {
        assert_eq!(b.nrows(), self.ncols, "B must have one row per column of A");
        let n = b.ncols();
        let bf: Vec<f64> = b.as_slice().iter().map(|v| v.to_f64()).collect();
        let mut h = Digest::new();
        let mut acc = vec![0.0f64; n];
        for row in &self.rows {
            acc.iter_mut().for_each(|x| *x = 0.0);
            for &(c, v) in row {
                for (x, bv) in acc.iter_mut().zip(&bf[c * n..(c + 1) * n]) {
                    *x += v * bv;
                }
            }
            for &x in &acc {
                h.push(round_f16(x));
            }
        }
        h.finish(self.rows.len(), n)
    }
}

/// Digest of a product the program returned.
pub fn output_digest(c: &Dense<F16>) -> u64 {
    let mut h = Digest::new();
    for v in c.as_slice() {
        h.push(v.to_f64());
    }
    h.finish(c.nrows(), c.ncols())
}

/// Round-to-nearest-even of `x` to the f16 grid (11 significant bits),
/// written out here so the oracle shares no conversion code with the
/// program. Inputs are finite sums far below the f16 overflow threshold.
pub fn round_f16(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let exp = x.abs().log2().floor() as i32;
    let ulp = 2f64.powi((exp - 10).max(-24));
    (x / ulp).round_ties_even() * ulp
}

/// FNV-1a over the f64 bit patterns of a row-major matrix and its shape.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: f64) {
        // +0.0 and -0.0 are the same output value.
        let v = if v == 0.0 { 0.0 } else { v };
        for byte in v.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(mut self, rows: usize, cols: usize) -> u64 {
        self.push(rows as f64);
        self.push(cols as f64);
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_f16_matches_the_f16_grid() {
        assert_eq!(round_f16(2049.0), 2048.0);
        assert_eq!(round_f16(2051.0), 2052.0);
        assert_eq!(round_f16(-4097.0), -4096.0);
        assert_eq!(round_f16(1000.0), 1000.0);
        assert_eq!(round_f16(-0.0), 0.0);
    }
}

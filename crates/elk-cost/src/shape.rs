use std::fmt;

use serde::{Deserialize, Serialize};

/// Operator class as seen by the cost model.
///
/// Mirrors the paper's per-operator-type profiling (Fig. 12 fits one model
/// each for matrix multiplication, reduce, and element-wise operators).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Dense (possibly batched) matrix multiply on the accumulation units.
    MatMul,
    /// Row-wise reductions (softmax, norms) on the vector units.
    Reduce,
    /// Element-wise maps on the vector units.
    Elementwise,
    /// Memory-movement (gather / copy) work.
    Gather,
}

impl OpClass {
    /// All classes, for profiling loops.
    pub const ALL: [OpClass; 4] = [
        OpClass::MatMul,
        OpClass::Reduce,
        OpClass::Elementwise,
        OpClass::Gather,
    ];
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The shape of one per-core tile, the input of the cost model.
///
/// Interpretation of the dimensions by class:
///
/// | class         | `batch`            | `d0`   | `d1`  | `d2` |
/// |---------------|--------------------|--------|-------|------|
/// | `MatMul`      | independent GEMMs  | m      | k     | n    |
/// | `Reduce`      | 1                  | rows   | cols  | —    |
/// | `Elementwise` | 1                  | elems  | arity | —    |
/// | `Gather`      | 1                  | rows   | width | —    |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileShape {
    /// Operator class.
    pub class: OpClass,
    /// Independent repetitions of the `d0 × d1 × d2` work unit.
    pub batch: u64,
    /// First dimension.
    pub d0: u64,
    /// Second dimension.
    pub d1: u64,
    /// Third dimension (MatMul only).
    pub d2: u64,
}

impl TileShape {
    /// A plain `m×k×n` matrix-multiply tile.
    #[must_use]
    pub fn matmul(m: u64, k: u64, n: u64) -> Self {
        TileShape {
            class: OpClass::MatMul,
            batch: 1,
            d0: m,
            d1: k,
            d2: n,
        }
    }

    /// A batched matrix-multiply tile (`batch` independent `m×k×n`).
    #[must_use]
    pub fn batch_matmul(batch: u64, m: u64, k: u64, n: u64) -> Self {
        TileShape {
            class: OpClass::MatMul,
            batch,
            d0: m,
            d1: k,
            d2: n,
        }
    }

    /// A `rows×cols` row-reduction tile.
    #[must_use]
    pub fn reduce(rows: u64, cols: u64) -> Self {
        TileShape {
            class: OpClass::Reduce,
            batch: 1,
            d0: rows,
            d1: cols,
            d2: 0,
        }
    }

    /// An element-wise tile over `elems` elements with `arity` inputs.
    #[must_use]
    pub fn elementwise(elems: u64, arity: u64) -> Self {
        TileShape {
            class: OpClass::Elementwise,
            batch: 1,
            d0: elems,
            d1: arity.max(1),
            d2: 0,
        }
    }

    /// A gather tile of `rows` rows of `width` elements.
    #[must_use]
    pub fn gather(rows: u64, width: u64) -> Self {
        TileShape {
            class: OpClass::Gather,
            batch: 1,
            d0: rows,
            d1: width,
            d2: 0,
        }
    }

    /// Nominal floating-point work of the tile.
    #[must_use]
    pub fn flops(&self) -> f64 {
        let b = self.batch as f64;
        match self.class {
            OpClass::MatMul => b * 2.0 * self.d0 as f64 * self.d1 as f64 * self.d2 as f64,
            OpClass::Reduce => b * 5.0 * self.d0 as f64 * self.d1 as f64,
            OpClass::Elementwise => b * 3.0 * self.d0 as f64 * self.d1 as f64,
            OpClass::Gather => 0.0,
        }
    }

    /// SRAM bytes touched by the tile (all operands once, `elem_bytes` per
    /// element).
    #[must_use]
    pub fn bytes_touched(&self, elem_bytes: u64) -> f64 {
        let b = self.batch as f64;
        let e = elem_bytes as f64;
        let elems = match self.class {
            OpClass::MatMul => {
                let (m, k, n) = (self.d0 as f64, self.d1 as f64, self.d2 as f64);
                m * k + k * n + m * n
            }
            OpClass::Reduce => 2.0 * self.d0 as f64 * self.d1 as f64,
            OpClass::Elementwise => (self.d1 as f64 + 1.0) * self.d0 as f64,
            OpClass::Gather => 2.0 * self.d0 as f64 * self.d1 as f64,
        };
        b * elems * e
    }

    /// Feature vector for the learned model. Chosen so a linear leaf can
    /// express `time ≈ α·flops + β·bytes + per-dim overheads + γ`. An
    /// array, so costing a tile allocates nothing.
    #[must_use]
    #[inline]
    pub fn features(&self) -> [f64; Self::FEATURE_COUNT] {
        [
            self.flops() / 1e6,
            self.bytes_touched(2) / 1e3,
            self.batch as f64,
            self.d0 as f64,
            self.d1 as f64,
            self.d2 as f64,
            (self.batch * self.d0) as f64,
        ]
    }

    /// Number of features produced by [`TileShape::features`].
    pub const FEATURE_COUNT: usize = 7;
}

impl fmt::Display for TileShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}x{}x{}x{}]",
            self.class, self.batch, self.d0, self.d1, self.d2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_flops() {
        let t = TileShape::matmul(4, 8, 16);
        assert_eq!(t.flops(), 2.0 * 4.0 * 8.0 * 16.0);
        let b = TileShape::batch_matmul(3, 4, 8, 16);
        assert_eq!(b.flops(), 3.0 * t.flops());
    }

    #[test]
    fn features_len_matches_constant() {
        for t in [
            TileShape::matmul(1, 2, 3),
            TileShape::reduce(4, 5),
            TileShape::elementwise(10, 2),
            TileShape::gather(3, 7),
        ] {
            assert_eq!(t.features().len(), TileShape::FEATURE_COUNT);
        }
    }

    #[test]
    fn gather_is_pure_memory() {
        let t = TileShape::gather(16, 128);
        assert_eq!(t.flops(), 0.0);
        assert!(t.bytes_touched(2) > 0.0);
    }
}

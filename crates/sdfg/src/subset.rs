//! Symbolic index subsets for memlets.
//!
//! A memlet annotates an edge with *which* part of an array moves. Each
//! dimension is either a single symbolic index (`A[i, k]`) or a symbolic
//! half-open range (`A[0:M, tk*sk:(tk+1)*sk]`). Range lengths summed over a
//! state give the data-movement characteristics the paper uses to derive its
//! communication-avoiding schedule (§4.1).

use crate::symexpr::{Bindings, SymExpr, UnboundSymbol};
use std::fmt;

/// Half-open symbolic interval `[begin, end)` with an optional stride
/// (`None` = contiguous, stride 1). DaCe "automatically computes contiguous
/// and strided ranges" during propagation; strided subsets appear when maps
/// iterate with steps or when tiling leaves interleaved partitions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Range {
    pub begin: SymExpr,
    pub end: SymExpr,
    pub stride: Option<SymExpr>,
}

impl Range {
    pub fn new(begin: impl Into<SymExpr>, end: impl Into<SymExpr>) -> Self {
        Range {
            begin: begin.into().simplified(),
            end: end.into().simplified(),
            stride: None,
        }
    }

    /// Strided interval `begin:end:stride` (stride must evaluate positive).
    pub fn strided(
        begin: impl Into<SymExpr>,
        end: impl Into<SymExpr>,
        stride: impl Into<SymExpr>,
    ) -> Self {
        let stride = stride.into().simplified();
        Range {
            begin: begin.into().simplified(),
            end: end.into().simplified(),
            stride: (stride != SymExpr::int(1)).then_some(stride),
        }
    }

    /// `[0, n)`.
    pub fn full(n: impl Into<SymExpr>) -> Self {
        Range::new(SymExpr::int(0), n)
    }

    /// Number of covered elements: `ceil((end − begin) / stride)`.
    pub fn length(&self) -> SymExpr {
        let span = (self.end.clone() - self.begin.clone()).simplified();
        match &self.stride {
            None => span,
            Some(s) => (span + s.clone() - SymExpr::int(1)).div(s.clone()),
        }
    }

    /// Clamp to `[0, n)` — used after propagating offset accesses like
    /// `kz - qz` whose range spills over the array bounds.
    pub fn clamped(&self, n: &SymExpr) -> Range {
        Range {
            begin: self.begin.clone().max(SymExpr::int(0)),
            end: self.end.clone().min(n.clone()),
            stride: self.stride.clone(),
        }
    }

    pub fn eval_length(&self, b: &Bindings) -> Result<i64, UnboundSymbol> {
        let span = (self.end.eval(b)? - self.begin.eval(b)?).max(0);
        Ok(match &self.stride {
            None => span,
            Some(s) => {
                let s = s.eval(b)?.max(1);
                (span + s - 1).div_euclid(s)
            }
        })
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.stride {
            None => write!(f, "{}:{}", self.begin, self.end),
            Some(s) => write!(f, "{}:{}:{}", self.begin, self.end, s),
        }
    }
}

/// One dimension of a memlet subset.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Dim {
    /// A single symbolic index, e.g. `kz - qz`.
    Index(SymExpr),
    /// A symbolic range.
    Range(Range),
    /// An indirect access through a lookup table (the `f(a, b)` neighbor
    /// indirection of Eq. 3). Propagation cannot see through it; the
    /// performance engineer supplies a model via
    /// [`crate::propagate::IndirectionModel`].
    Indirect { table: String, args: Vec<SymExpr> },
}

impl Dim {
    pub fn idx(e: impl Into<SymExpr>) -> Dim {
        Dim::Index(e.into().simplified())
    }

    pub fn range(begin: impl Into<SymExpr>, end: impl Into<SymExpr>) -> Dim {
        Dim::Range(Range::new(begin, end))
    }

    pub fn full(n: impl Into<SymExpr>) -> Dim {
        Dim::Range(Range::full(n))
    }

    /// Number of elements covered by this dimension.
    pub fn length(&self) -> SymExpr {
        match self {
            Dim::Index(_) => SymExpr::int(1),
            Dim::Range(r) => r.length(),
            // Without a model, an indirection touches one element per access.
            Dim::Indirect { .. } => SymExpr::int(1),
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::Index(e) => write!(f, "{e}"),
            Dim::Range(r) => write!(f, "{r}"),
            Dim::Indirect { table, args } => {
                let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                write!(f, "{table}({})", args.join(", "))
            }
        }
    }
}

/// Multi-dimensional subset: one [`Dim`] per array dimension.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Subset(pub Vec<Dim>);

impl Subset {
    pub fn new(dims: Vec<Dim>) -> Self {
        Subset(dims)
    }

    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// Total number of *unique* elements covered (product of dim lengths).
    pub fn num_elements(&self) -> SymExpr {
        self.0
            .iter()
            .fold(SymExpr::int(1), |acc, d| acc * d.length())
            .simplified()
    }

    pub fn eval_num_elements(&self, b: &Bindings) -> Result<i64, UnboundSymbol> {
        let mut total: i64 = 1;
        for d in &self.0 {
            total *= match d {
                Dim::Index(_) | Dim::Indirect { .. } => 1,
                Dim::Range(r) => r.eval_length(b)?,
            };
        }
        Ok(total)
    }
}

impl fmt::Display for Subset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dims: Vec<String> = self.0.iter().map(|d| d.to_string()).collect();
        write!(f, "[{}]", dims.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_length() {
        let r = Range::new(SymExpr::sym("a"), SymExpr::sym("a") + SymExpr::int(5));
        assert_eq!(r.length(), SymExpr::int(5));
    }

    #[test]
    fn full_range() {
        let r = Range::full(SymExpr::sym("N"));
        assert_eq!(r.length(), SymExpr::sym("N"));
    }

    #[test]
    fn clamp_bounds() {
        let r = Range::new(SymExpr::int(-3), SymExpr::int(12));
        let c = r.clamped(&SymExpr::int(10));
        let b = Bindings::new();
        assert_eq!(c.begin.eval(&b).unwrap(), 0);
        assert_eq!(c.end.eval(&b).unwrap(), 10);
    }

    #[test]
    fn negative_length_clamps_to_zero_on_eval() {
        let r = Range::new(SymExpr::int(5), SymExpr::int(3));
        assert_eq!(r.eval_length(&Bindings::new()).unwrap(), 0);
    }

    #[test]
    fn subset_volume() {
        let s = Subset::new(vec![
            Dim::idx(SymExpr::sym("i")),
            Dim::full(SymExpr::sym("M")),
            Dim::full(SymExpr::sym("N")),
        ]);
        let mut b = Bindings::new();
        b.insert("M".into(), 4);
        b.insert("N".into(), 6);
        assert_eq!(s.eval_num_elements(&b).unwrap(), 24);
    }

    #[test]
    fn strided_range_length() {
        // 0:10:3 covers {0, 3, 6, 9} = 4 elements.
        let r = Range::strided(0, 10, 3);
        assert_eq!(r.eval_length(&Bindings::new()).unwrap(), 4);
        // Symbolic length: ceil((e−b)/s).
        let r = Range::strided(SymExpr::int(0), SymExpr::sym("N"), SymExpr::int(2));
        let mut b = Bindings::new();
        b.insert("N".into(), 7);
        assert_eq!(r.length().eval(&b).unwrap(), 4);
        // Stride 1 normalizes to contiguous.
        let r = Range::strided(0, 5, 1);
        assert!(r.stride.is_none());
        assert_eq!(format!("{r}"), "0:5");
        let r = Range::strided(0, 5, 2);
        assert_eq!(format!("{r}"), "0:5:2");
    }

    #[test]
    fn strided_clamp_keeps_stride() {
        let r = Range::strided(-4, 20, 4);
        let c = r.clamped(&SymExpr::int(12));
        assert_eq!(c.eval_length(&Bindings::new()).unwrap(), 3); // 0,4,8
        assert!(c.stride.is_some());
    }

    #[test]
    fn display_forms() {
        let s = Subset::new(vec![
            Dim::idx(SymExpr::sym("k") - SymExpr::sym("q")),
            Dim::range(SymExpr::int(0), SymExpr::sym("NE")),
        ]);
        assert_eq!(format!("{s}"), "[(k - q), 0:NE]");
    }
}

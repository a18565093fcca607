//! Memlet propagation through map scopes (§4.1, Fig. 7).
//!
//! Given an inner memlet whose indices depend on map parameters, compute the
//! outer memlet: the union of accessed elements over the parameter ranges,
//! plus the total access count. DaCe "automatically computes contiguous and
//! strided ranges, but can only over-approximate some irregular accesses" —
//! affine index expressions are handled exactly here; indirections (`f(a,b)`)
//! take a performance-engineer-provided [`IndirectionModel`], mirroring the
//! paper's workflow.

use crate::subset::{Dim, Range, Subset};
use crate::symexpr::SymExpr;

/// A map parameter and the half-open range it iterates over.
#[derive(Clone, Debug)]
pub struct ParamRange {
    pub name: String,
    pub range: Range,
}

impl ParamRange {
    pub fn new(
        name: impl Into<String>,
        begin: impl Into<SymExpr>,
        end: impl Into<SymExpr>,
    ) -> Self {
        ParamRange {
            name: name.into(),
            range: Range::new(begin, end),
        }
    }
}

/// Performance-engineer-supplied propagation for indirect dimensions.
///
/// The paper's model for the neighbor indirection `f(a, b)` over
/// `a ∈ [ta·sa, (ta+1)·sa), b ∈ [0, NB)` is
/// `[max(0, ta·sa − NB/2), min(NA, (ta+1)·sa + NB/2))`,
/// justified by atoms with neighboring indices usually being neighbors in
/// the coupling matrix.
pub struct IndirectionModel {
    /// Name of the lookup table this model applies to.
    pub table: String,
    /// Given the propagated ranges of the indirection arguments, produce the
    /// propagated output range.
    #[allow(clippy::type_complexity)]
    pub propagate: Box<dyn Fn(&[Range]) -> Range>,
}

impl IndirectionModel {
    /// The paper's neighbor-window model: the output spans the first
    /// argument's range widened by `NB/2` on each side, clamped to `[0, NA)`.
    pub fn neighbor_window(table: impl Into<String>, na: SymExpr, nb: SymExpr) -> Self {
        let table = table.into();
        IndirectionModel {
            table,
            propagate: Box::new(move |args: &[Range]| {
                let a = &args[0];
                let half = nb.clone().div(SymExpr::int(2));
                Range {
                    begin: (a.begin.clone() - half.clone()).max(SymExpr::int(0)),
                    end: (a.end.clone() + half.clone()).min(na.clone()),
                    stride: None,
                }
            }),
        }
    }
}

/// Propagate a single affine index expression over the parameter ranges.
///
/// For `e = Σ c_p·p + rest`: the minimum is attained with each positive-
/// coefficient parameter at its begin and each negative one at `end − 1`
/// (and vice versa for the maximum). Non-participating symbols stay
/// symbolic. Returns the half-open range `[min, max + 1)`.
pub fn propagate_index(e: &SymExpr, params: &[ParamRange]) -> Range {
    let mut lo = e.clone();
    let mut hi = e.clone();
    if let Some((coeffs, _)) = e.as_affine() {
        for p in params {
            let Some(&c) = coeffs.get(&p.name) else {
                continue;
            };
            if c == 0 {
                continue;
            }
            let begin = p.range.begin.clone();
            let last = p.range.end.clone() - SymExpr::int(1);
            if c > 0 {
                lo = lo.subs(&p.name, &begin);
                hi = hi.subs(&p.name, &last);
            } else {
                lo = lo.subs(&p.name, &last);
                hi = hi.subs(&p.name, &begin);
            }
        }
        Range {
            begin: lo.simplified(),
            end: (hi + SymExpr::int(1)).simplified(),
            stride: None,
        }
    } else {
        // Conservative: cannot bound a non-affine expression; substitute the
        // extremes for every parameter appearing in it and take both orders.
        let mut lo = e.clone();
        let mut hi = e.clone();
        for p in params {
            lo = lo.subs(&p.name, &p.range.begin);
            hi = hi.subs(&p.name, &(p.range.end.clone() - SymExpr::int(1)));
        }
        Range {
            begin: lo.clone().min(hi.clone()),
            end: lo.max(hi) + SymExpr::int(1),
            stride: None,
        }
    }
}

/// Result of propagating a memlet out of a map scope.
#[derive(Clone, Debug)]
pub struct PropagatedMemlet {
    /// Union of accessed elements (per dimension).
    pub subset: Subset,
    /// Total number of (not necessarily unique) accesses.
    pub accesses: SymExpr,
}

/// Propagate a full memlet subset through a map with the given parameter
/// ranges. `models` resolve indirect dimensions; unknown indirections
/// over-approximate to the full array dimension if `shape` is provided.
pub fn propagate_subset(
    subset: &Subset,
    params: &[ParamRange],
    models: &[IndirectionModel],
    shape: Option<&[SymExpr]>,
) -> PropagatedMemlet {
    let mut dims = Vec::with_capacity(subset.ndim());
    for (d, dim) in subset.0.iter().enumerate() {
        let out = match dim {
            Dim::Index(e) => {
                let r = propagate_index(e, params);
                if r.length() == SymExpr::int(1) {
                    Dim::Index(r.begin)
                } else {
                    Dim::Range(r)
                }
            }
            Dim::Range(r) => {
                // Propagate both endpoints.
                let lo = propagate_index(&r.begin, params);
                let hi_last = propagate_index(&(r.end.clone() - SymExpr::int(1)), params);
                Dim::Range(Range {
                    begin: lo.begin,
                    end: hi_last.end,
                    stride: r.stride.clone(),
                })
            }
            Dim::Indirect { table, args } => {
                if let Some(model) = models.iter().find(|m| &m.table == table) {
                    let arg_ranges: Vec<Range> =
                        args.iter().map(|a| propagate_index(a, params)).collect();
                    Dim::Range((model.propagate)(&arg_ranges))
                } else if let Some(shape) = shape {
                    Dim::Range(Range::full(shape[d].clone()))
                } else {
                    Dim::Indirect {
                        table: table.clone(),
                        args: args.clone(),
                    }
                }
            }
        };
        dims.push(out);
    }
    // Access count: one access per inner-subset element per map iteration.
    let map_volume = params
        .iter()
        .fold(SymExpr::int(1), |acc, p| acc * p.range.length());
    let accesses = (map_volume * subset.num_elements()).simplified();
    PropagatedMemlet {
        subset: Subset::new(dims),
        accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symexpr::Bindings;

    fn b(pairs: &[(&str, i64)]) -> Bindings {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    /// The paper's worked example (Fig. 7): propagating `kz - qz` over
    /// `kz ∈ [tk·sk, (tk+1)·sk)`, `qz ∈ [tq·sq, (tq+1)·sq)` yields
    /// `[tk·sk − (tq+1)·sq + 1, (tk+1)·sk − tq·sq)` with
    /// `sk + sq − 1` unique elements.
    #[test]
    fn paper_kz_minus_qz_example() {
        let tk = SymExpr::sym("tk");
        let tq = SymExpr::sym("tq");
        let sk = SymExpr::sym("sk");
        let sq = SymExpr::sym("sq");
        let params = vec![
            ParamRange::new(
                "kz",
                tk.clone() * sk.clone(),
                (tk.clone() + SymExpr::int(1)) * sk.clone(),
            ),
            ParamRange::new(
                "qz",
                tq.clone() * sq.clone(),
                (tq.clone() + SymExpr::int(1)) * sq.clone(),
            ),
        ];
        let e = SymExpr::sym("kz") - SymExpr::sym("qz");
        let r = propagate_index(&e, &params);
        let bind = b(&[("tk", 2), ("sk", 10), ("tq", 1), ("sq", 4)]);
        // Range should be [2*10 - 2*4 + 1, 3*10 - 1*4) = [13, 26)
        assert_eq!(r.begin.eval(&bind).unwrap(), 13);
        assert_eq!(r.end.eval(&bind).unwrap(), 26);
        // Unique accesses: sk + sq - 1 = 13.
        assert_eq!(r.eval_length(&bind).unwrap(), 13);
    }

    #[test]
    fn constant_coefficient_direction() {
        // e = 2*i - 3*j over i ∈ [0, 4), j ∈ [0, 5)
        let params = vec![ParamRange::new("i", 0, 4), ParamRange::new("j", 0, 5)];
        let e = SymExpr::int(2) * SymExpr::sym("i") - SymExpr::int(3) * SymExpr::sym("j");
        let r = propagate_index(&e, &params);
        let bind = b(&[]);
        // min = 0 - 3*4 = -12, max = 2*3 - 0 = 6 -> [-12, 7)
        assert_eq!(r.begin.eval(&bind).unwrap(), -12);
        assert_eq!(r.end.eval(&bind).unwrap(), 7);
    }

    #[test]
    fn pure_param_index_becomes_param_range() {
        let params = vec![ParamRange::new("E", 0, SymExpr::sym("NE"))];
        let e = SymExpr::sym("E");
        let r = propagate_index(&e, &params);
        let bind = b(&[("NE", 100)]);
        assert_eq!(r.begin.eval(&bind).unwrap(), 0);
        assert_eq!(r.end.eval(&bind).unwrap(), 100);
    }

    #[test]
    fn indirection_model_neighbor_window() {
        // f(a, b) over a ∈ [ta*sa, (ta+1)*sa): propagates to the widened
        // window of the paper.
        let na = SymExpr::sym("NA");
        let nb = SymExpr::sym("NB");
        let model = IndirectionModel::neighbor_window("f", na.clone(), nb.clone());
        let ta = SymExpr::sym("ta");
        let sa = SymExpr::sym("sa");
        let params = vec![
            ParamRange::new("a", ta.clone() * sa.clone(), (ta + SymExpr::int(1)) * sa),
            ParamRange::new("b", 0, nb.clone()),
        ];
        let subset = Subset::new(vec![Dim::Indirect {
            table: "f".into(),
            args: vec![SymExpr::sym("a"), SymExpr::sym("b")],
        }]);
        let prop = propagate_subset(&subset, &params, &[model], None);
        let bind = b(&[("ta", 2), ("sa", 100), ("NA", 1000), ("NB", 14)]);
        let Dim::Range(r) = &prop.subset.0[0] else {
            panic!("expected range");
        };
        // [max(0, 200-7), min(1000, 300+7)) = [193, 307): sa + NB elements.
        assert_eq!(r.begin.eval(&bind).unwrap(), 193);
        assert_eq!(r.end.eval(&bind).unwrap(), 307);
        assert_eq!(r.eval_length(&bind).unwrap(), 114);
        // Total accesses: sa * NB map iterations * 1 element = 1400.
        assert_eq!(prop.accesses.eval(&bind).unwrap(), 1400);
    }

    #[test]
    fn range_dim_propagates_endpoints() {
        // A[E - Nw : E] over E ∈ [0, NE) -> [-Nw+1... wait: endpoints
        // propagate to [0 - Nw, NE - 1) + 1 = [-Nw, NE).
        let params = vec![ParamRange::new("E", 0, SymExpr::sym("NE"))];
        let subset = Subset::new(vec![Dim::Range(Range::new(
            SymExpr::sym("E") - SymExpr::sym("Nw"),
            SymExpr::sym("E"),
        ))]);
        let prop = propagate_subset(&subset, &params, &[], None);
        let bind = b(&[("NE", 100), ("Nw", 10)]);
        let Dim::Range(r) = &prop.subset.0[0] else {
            panic!()
        };
        assert_eq!(r.begin.eval(&bind).unwrap(), -10);
        assert_eq!(r.end.eval(&bind).unwrap(), 99);
    }

    #[test]
    fn access_count_multiplies_map_volume() {
        let params = vec![
            ParamRange::new("i", 0, SymExpr::sym("M")),
            ParamRange::new("j", 0, SymExpr::sym("N")),
        ];
        // A[i] read once per (i, j).
        let subset = Subset::new(vec![Dim::idx(SymExpr::sym("i"))]);
        let prop = propagate_subset(&subset, &params, &[], None);
        let bind = b(&[("M", 8), ("N", 5)]);
        assert_eq!(prop.accesses.eval(&bind).unwrap(), 40);
        assert_eq!(prop.subset.eval_num_elements(&bind).unwrap(), 8);
    }
}

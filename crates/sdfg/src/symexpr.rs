//! Symbolic integer expressions.
//!
//! Memlet subsets in an SDFG are symbolic in the simulation parameters
//! (`Nkz`, `NE`, tile sizes `s_k`, …). Propagating them and summing access
//! counts requires a small computer-algebra layer: exact integer arithmetic,
//! affine-form extraction (for range propagation), `min`/`max` (for
//! clamping), simplification, and evaluation against parameter bindings.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A symbolic integer expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SymExpr {
    Const(i64),
    Sym(String),
    Add(Box<SymExpr>, Box<SymExpr>),
    Sub(Box<SymExpr>, Box<SymExpr>),
    Mul(Box<SymExpr>, Box<SymExpr>),
    /// Euclidean (floor) division by a positive expression.
    Div(Box<SymExpr>, Box<SymExpr>),
    Min(Box<SymExpr>, Box<SymExpr>),
    Max(Box<SymExpr>, Box<SymExpr>),
}

/// Bindings from symbol names to concrete values.
pub type Bindings = BTreeMap<String, i64>;

/// Error when evaluating an expression with unbound symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnboundSymbol(pub String);

impl fmt::Display for UnboundSymbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unbound symbol `{}`", self.0)
    }
}

impl std::error::Error for UnboundSymbol {}

impl SymExpr {
    /// Symbol by name.
    pub fn sym(name: impl Into<String>) -> SymExpr {
        SymExpr::Sym(name.into())
    }

    /// Integer constant.
    pub const fn int(v: i64) -> SymExpr {
        SymExpr::Const(v)
    }

    pub fn min(self, other: SymExpr) -> SymExpr {
        SymExpr::Min(Box::new(self), Box::new(other)).simplified()
    }

    pub fn max(self, other: SymExpr) -> SymExpr {
        SymExpr::Max(Box::new(self), Box::new(other)).simplified()
    }

    /// Floor division (rhs must evaluate positive). Not `std::ops::Div`:
    /// this is flooring integer division on symbolic expressions, and the
    /// builder methods keep a uniform `min/max/div` naming.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: SymExpr) -> SymExpr {
        SymExpr::Div(Box::new(self), Box::new(other)).simplified()
    }

    /// Evaluate against bindings.
    pub fn eval(&self, b: &Bindings) -> Result<i64, UnboundSymbol> {
        Ok(match self {
            SymExpr::Const(v) => *v,
            SymExpr::Sym(s) => *b.get(s).ok_or_else(|| UnboundSymbol(s.clone()))?,
            SymExpr::Add(l, r) => l.eval(b)? + r.eval(b)?,
            SymExpr::Sub(l, r) => l.eval(b)? - r.eval(b)?,
            SymExpr::Mul(l, r) => l.eval(b)? * r.eval(b)?,
            SymExpr::Div(l, r) => l.eval(b)?.div_euclid(r.eval(b)?),
            SymExpr::Min(l, r) => l.eval(b)?.min(r.eval(b)?),
            SymExpr::Max(l, r) => l.eval(b)?.max(r.eval(b)?),
        })
    }

    /// All free symbols, sorted.
    pub fn symbols(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_symbols(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_symbols(&self, out: &mut Vec<String>) {
        match self {
            SymExpr::Const(_) => {}
            SymExpr::Sym(s) => out.push(s.clone()),
            SymExpr::Add(l, r)
            | SymExpr::Sub(l, r)
            | SymExpr::Mul(l, r)
            | SymExpr::Div(l, r)
            | SymExpr::Min(l, r)
            | SymExpr::Max(l, r) => {
                l.collect_symbols(out);
                r.collect_symbols(out);
            }
        }
    }

    /// Substitute a symbol by an expression.
    pub fn subs(&self, name: &str, value: &SymExpr) -> SymExpr {
        match self {
            SymExpr::Const(v) => SymExpr::Const(*v),
            SymExpr::Sym(s) => {
                if s == name {
                    value.clone()
                } else {
                    SymExpr::Sym(s.clone())
                }
            }
            SymExpr::Add(l, r) => {
                SymExpr::Add(Box::new(l.subs(name, value)), Box::new(r.subs(name, value)))
            }
            SymExpr::Sub(l, r) => {
                SymExpr::Sub(Box::new(l.subs(name, value)), Box::new(r.subs(name, value)))
            }
            SymExpr::Mul(l, r) => {
                SymExpr::Mul(Box::new(l.subs(name, value)), Box::new(r.subs(name, value)))
            }
            SymExpr::Div(l, r) => {
                SymExpr::Div(Box::new(l.subs(name, value)), Box::new(r.subs(name, value)))
            }
            SymExpr::Min(l, r) => {
                SymExpr::Min(Box::new(l.subs(name, value)), Box::new(r.subs(name, value)))
            }
            SymExpr::Max(l, r) => {
                SymExpr::Max(Box::new(l.subs(name, value)), Box::new(r.subs(name, value)))
            }
        }
        .simplified()
    }

    /// Recursive constant folding and identity elimination. Expressions with
    /// a purely affine structure are additionally rebuilt in canonical form,
    /// so `(a + 5) - a` folds to `5`.
    pub fn simplified(&self) -> SymExpr {
        let folded = self.folded();
        if let Some((coeffs, c)) = folded.as_affine() {
            let rebuilt = {
                let mut expr: Option<SymExpr> = None;
                for (name, &coeff) in coeffs.iter().filter(|(_, &v)| v != 0) {
                    let term = if coeff == 1 {
                        SymExpr::Sym(name.clone())
                    } else {
                        SymExpr::Mul(
                            Box::new(SymExpr::Const(coeff)),
                            Box::new(SymExpr::Sym(name.clone())),
                        )
                    };
                    expr = Some(match expr {
                        None => term,
                        Some(e) => SymExpr::Add(Box::new(e), Box::new(term)),
                    });
                }
                match (expr, c) {
                    (None, c) => SymExpr::Const(c),
                    (Some(e), 0) => e,
                    (Some(e), c) => SymExpr::Add(Box::new(e), Box::new(SymExpr::Const(c))),
                }
            };
            // Keep whichever form is smaller (the canonical rebuild folds
            // things like `(N − 1) + 1` but would bloat forms with many
            // repeated symbols).
            if rebuilt.node_count() < folded.node_count() {
                return rebuilt;
            }
        }
        folded
    }

    /// Number of nodes in the expression tree.
    fn node_count(&self) -> usize {
        match self {
            SymExpr::Const(_) | SymExpr::Sym(_) => 1,
            SymExpr::Add(l, r)
            | SymExpr::Sub(l, r)
            | SymExpr::Mul(l, r)
            | SymExpr::Div(l, r)
            | SymExpr::Min(l, r)
            | SymExpr::Max(l, r) => 1 + l.node_count() + r.node_count(),
        }
    }

    /// Structural constant folding and identity elimination.
    fn folded(&self) -> SymExpr {
        use SymExpr::*;
        match self {
            Const(_) | Sym(_) => self.clone(),
            Add(l, r) => match (l.simplified(), r.simplified()) {
                (Const(a), Const(b)) => Const(a + b),
                (Const(0), x) | (x, Const(0)) => x,
                (a, b) => Add(Box::new(a), Box::new(b)),
            },
            Sub(l, r) => match (l.simplified(), r.simplified()) {
                (Const(a), Const(b)) => Const(a - b),
                (x, Const(0)) => x,
                (a, b) if a == b => Const(0),
                (a, b) => Sub(Box::new(a), Box::new(b)),
            },
            Mul(l, r) => match (l.simplified(), r.simplified()) {
                (Const(a), Const(b)) => Const(a * b),
                (Const(0), _) | (_, Const(0)) => Const(0),
                (Const(1), x) | (x, Const(1)) => x,
                (a, b) => Mul(Box::new(a), Box::new(b)),
            },
            Div(l, r) => match (l.simplified(), r.simplified()) {
                (Const(a), Const(b)) if b != 0 => Const(a.div_euclid(b)),
                (x, Const(1)) => x,
                (Const(0), _) => Const(0),
                (a, b) => Div(Box::new(a), Box::new(b)),
            },
            Min(l, r) => match (l.simplified(), r.simplified()) {
                (Const(a), Const(b)) => Const(a.min(b)),
                (a, b) if a == b => a,
                (a, b) => Min(Box::new(a), Box::new(b)),
            },
            Max(l, r) => match (l.simplified(), r.simplified()) {
                (Const(a), Const(b)) => Const(a.max(b)),
                (a, b) if a == b => a,
                (a, b) => Max(Box::new(a), Box::new(b)),
            },
        }
    }

    /// Decompose into affine form `sum(coeff_i * sym_i) + const`, if possible.
    /// `Min`/`Max`/`Div` and products of symbols return `None`.
    pub fn as_affine(&self) -> Option<(BTreeMap<String, i64>, i64)> {
        use SymExpr::*;
        match self {
            Const(v) => Some((BTreeMap::new(), *v)),
            Sym(s) => {
                let mut m = BTreeMap::new();
                m.insert(s.clone(), 1);
                Some((m, 0))
            }
            Add(l, r) => {
                let (ml, cl) = l.as_affine()?;
                let (mut mr, cr) = r.as_affine()?;
                for (k, v) in ml {
                    *mr.entry(k).or_insert(0) += v;
                }
                Some((mr, cl + cr))
            }
            Sub(l, r) => {
                let (ml, cl) = l.as_affine()?;
                let (mr, cr) = r.as_affine()?;
                let mut m = ml;
                for (k, v) in mr {
                    *m.entry(k).or_insert(0) -= v;
                }
                Some((m, cl - cr))
            }
            Mul(l, r) => {
                let (ml, cl) = l.as_affine()?;
                let (mr, cr) = r.as_affine()?;
                if ml.is_empty() {
                    // constant * affine
                    let mut m = mr;
                    for v in m.values_mut() {
                        *v *= cl;
                    }
                    Some((m, cl * cr))
                } else if mr.is_empty() {
                    let mut m = ml;
                    for v in m.values_mut() {
                        *v *= cr;
                    }
                    Some((m, cl * cr))
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// True if the expression is the constant zero after simplification.
    pub fn is_zero(&self) -> bool {
        matches!(self.simplified(), SymExpr::Const(0))
    }
}

impl From<i64> for SymExpr {
    fn from(v: i64) -> Self {
        SymExpr::Const(v)
    }
}

impl From<&str> for SymExpr {
    fn from(s: &str) -> Self {
        SymExpr::sym(s)
    }
}

impl Add for SymExpr {
    type Output = SymExpr;
    fn add(self, rhs: SymExpr) -> SymExpr {
        SymExpr::Add(Box::new(self), Box::new(rhs)).simplified()
    }
}

impl Sub for SymExpr {
    type Output = SymExpr;
    fn sub(self, rhs: SymExpr) -> SymExpr {
        SymExpr::Sub(Box::new(self), Box::new(rhs)).simplified()
    }
}

impl Mul for SymExpr {
    type Output = SymExpr;
    fn mul(self, rhs: SymExpr) -> SymExpr {
        SymExpr::Mul(Box::new(self), Box::new(rhs)).simplified()
    }
}

impl Neg for SymExpr {
    type Output = SymExpr;
    fn neg(self) -> SymExpr {
        SymExpr::Const(0) - self
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymExpr::Const(v) => write!(f, "{v}"),
            SymExpr::Sym(s) => write!(f, "{s}"),
            SymExpr::Add(l, r) => write!(f, "({l} + {r})"),
            SymExpr::Sub(l, r) => write!(f, "({l} - {r})"),
            SymExpr::Mul(l, r) => write!(f, "{l}*{r}"),
            SymExpr::Div(l, r) => write!(f, "({l} / {r})"),
            SymExpr::Min(l, r) => write!(f, "min({l}, {r})"),
            SymExpr::Max(l, r) => write!(f, "max({l}, {r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(pairs: &[(&str, i64)]) -> Bindings {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn eval_basic() {
        let e = SymExpr::sym("x") * SymExpr::int(3) + SymExpr::sym("y") - SymExpr::int(1);
        assert_eq!(e.eval(&b(&[("x", 4), ("y", 2)])).unwrap(), 13);
    }

    #[test]
    fn unbound_symbol_errors() {
        let e = SymExpr::sym("missing");
        assert!(e.eval(&b(&[])).is_err());
    }

    #[test]
    fn simplification_identities() {
        let x = SymExpr::sym("x");
        assert_eq!((x.clone() + SymExpr::int(0)), x);
        assert_eq!((x.clone() * SymExpr::int(1)), x);
        assert_eq!((x.clone() * SymExpr::int(0)), SymExpr::int(0));
        assert_eq!((x.clone() - x.clone()), SymExpr::int(0));
        assert_eq!(SymExpr::int(2) + SymExpr::int(3), SymExpr::int(5));
    }

    #[test]
    fn min_max_fold() {
        assert_eq!(SymExpr::int(3).min(SymExpr::int(5)), SymExpr::int(3));
        assert_eq!(SymExpr::int(3).max(SymExpr::int(5)), SymExpr::int(5));
        let x = SymExpr::sym("x");
        assert_eq!(x.clone().min(x.clone()), x);
    }

    #[test]
    fn canonical_rebuild_folds_constant_chains() {
        // (N − 1) + 1 → N
        let e = SymExpr::sym("N") - SymExpr::int(1) + SymExpr::int(1);
        assert_eq!(e, SymExpr::sym("N"));
        // x + x → 2*x
        let two_x = SymExpr::sym("x") + SymExpr::sym("x");
        let b: Bindings = [("x".to_string(), 7)].into_iter().collect();
        assert_eq!(two_x.eval(&b).unwrap(), 14);
    }

    #[test]
    fn substitute() {
        // (k - q) with k := tk*sk  ->  tk*sk - q
        let e = SymExpr::sym("k") - SymExpr::sym("q");
        let s = e.subs("k", &(SymExpr::sym("tk") * SymExpr::sym("sk")));
        assert_eq!(s.eval(&b(&[("tk", 2), ("sk", 10), ("q", 3)])).unwrap(), 17);
    }

    #[test]
    fn affine_decomposition() {
        // 2x - 3y + 7
        let e = SymExpr::int(2) * SymExpr::sym("x") - SymExpr::int(3) * SymExpr::sym("y")
            + SymExpr::int(7);
        let (coeffs, c) = e.as_affine().unwrap();
        assert_eq!(c, 7);
        assert_eq!(coeffs.get("x"), Some(&2));
        assert_eq!(coeffs.get("y"), Some(&-3));
        // x*y is not affine
        let nl = SymExpr::sym("x") * SymExpr::sym("y");
        assert!(nl.as_affine().is_none());
    }

    #[test]
    fn floor_division() {
        let e = SymExpr::sym("n").div(SymExpr::int(4));
        assert_eq!(e.eval(&b(&[("n", 10)])).unwrap(), 2);
        assert_eq!(e.eval(&b(&[("n", -1)])).unwrap(), -1);
    }

    #[test]
    fn display_readable() {
        let e = SymExpr::sym("sk") + SymExpr::sym("sq") - SymExpr::int(1);
        assert_eq!(format!("{e}"), "((sk + sq) - 1)");
    }

    #[test]
    fn symbols_sorted_unique() {
        let e = SymExpr::sym("b") * SymExpr::sym("a") + SymExpr::sym("b");
        assert_eq!(e.symbols(), vec!["a".to_string(), "b".to_string()]);
    }
}

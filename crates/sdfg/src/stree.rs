//! Structured dataflow tree — the transformable view of an SDFG state.
//!
//! DaCe's transformations (map tiling, fission, fusion, …) pattern-match on
//! the *scope tree* of a state: maps nest, tasklets sit inside scopes, and
//! memlets decorate the edges. This module is that scope tree, made the
//! primary representation: every transformation in
//! [`crate::transforms`] rewrites a [`ScopeTree`], and
//! [`crate::graph`] lowers trees to the flat multigraph for rendering and
//! validation.

use crate::propagate::{propagate_subset, IndirectionModel, ParamRange, PropagatedMemlet};
use crate::subset::Subset;
use crate::symexpr::{Bindings, SymExpr};
use std::collections::BTreeMap;
use std::fmt;

/// Element datatype of an array container.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dtype {
    Complex128,
    Float64,
    Int32,
}

impl Dtype {
    pub fn size_bytes(self) -> u64 {
        match self {
            Dtype::Complex128 => 16,
            Dtype::Float64 => 8,
            Dtype::Int32 => 4,
        }
    }
}

/// Array container descriptor.
#[derive(Clone, Debug)]
pub struct ArrayDesc {
    pub shape: Vec<SymExpr>,
    pub dtype: Dtype,
    /// Transient arrays live only inside the SDFG (scratch storage).
    pub transient: bool,
}

impl ArrayDesc {
    pub fn new(shape: Vec<SymExpr>, dtype: Dtype, transient: bool) -> Self {
        ArrayDesc {
            shape,
            dtype,
            transient,
        }
    }

    /// Total element count.
    pub fn num_elements(&self) -> SymExpr {
        self.shape
            .iter()
            .fold(SymExpr::int(1), |a, s| a * s.clone())
            .simplified()
    }

    /// Footprint in bytes for given parameter bindings.
    pub fn eval_bytes(&self, b: &Bindings) -> i64 {
        let n = self.num_elements().eval(b).unwrap_or(0);
        n * self.dtype.size_bytes() as i64
    }
}

/// A data access annotation: which array, which subset, read or
/// write-with-conflict-resolution.
#[derive(Clone, Debug)]
pub struct Access {
    pub array: String,
    pub subset: Subset,
    /// Write-conflict resolution (`CR: Sum` in the figures) — `true` means
    /// the access accumulates into the target.
    pub wcr_sum: bool,
}

impl Access {
    pub fn read(array: impl Into<String>, subset: Subset) -> Self {
        Access {
            array: array.into(),
            subset,
            wcr_sum: false,
        }
    }

    pub fn write(array: impl Into<String>, subset: Subset) -> Self {
        Access {
            array: array.into(),
            subset,
            wcr_sum: false,
        }
    }

    pub fn accumulate(array: impl Into<String>, subset: Subset) -> Self {
        Access {
            array: array.into(),
            subset,
            wcr_sum: true,
        }
    }
}

/// The operation a compute node performs — enough structure for the
/// transformation pipeline to reason about fusing multiplications.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Matrix multiply of the (matrix-shaped) trailing dims of the inputs.
    MatMul,
    /// Scalar × matrix product.
    ScalarMul,
    /// Elementwise tasklet (generic).
    Tasklet,
    /// A fused wide GEMM replacing a batch of small multiplies
    /// (Fig. 10d / Fig. 11c). Carries the batch factor it absorbed.
    BatchedGemm { batch: SymExpr },
}

/// A node in the scope tree.
#[derive(Clone, Debug)]
pub enum Node {
    /// Parametric parallel scope.
    Map {
        label: String,
        params: Vec<ParamRange>,
        body: Vec<Node>,
    },
    /// Fine-grained computation with explicit data accesses.
    Compute {
        label: String,
        op: OpKind,
        inputs: Vec<Access>,
        outputs: Vec<Access>,
        /// Real flop per invocation (symbolic).
        flops: SymExpr,
    },
}

impl Node {
    pub fn map(label: impl Into<String>, params: Vec<ParamRange>, body: Vec<Node>) -> Node {
        Node::Map {
            label: label.into(),
            params,
            body,
        }
    }

    pub fn compute(
        label: impl Into<String>,
        op: OpKind,
        inputs: Vec<Access>,
        outputs: Vec<Access>,
        flops: SymExpr,
    ) -> Node {
        Node::Compute {
            label: label.into(),
            op,
            inputs,
            outputs,
            flops,
        }
    }

    pub fn label(&self) -> &str {
        match self {
            Node::Map { label, .. } | Node::Compute { label, .. } => label,
        }
    }
}

/// A dataflow state as a scope tree plus its array containers.
#[derive(Clone, Debug, Default)]
pub struct ScopeTree {
    pub name: String,
    pub arrays: BTreeMap<String, ArrayDesc>,
    pub roots: Vec<Node>,
    /// Models for indirect accesses, keyed by table name.
    pub indirection_tables: Vec<String>,
}

/// Aggregate movement/compute statistics for a (sub)tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TreeStats {
    /// Total accesses (elements moved, counting repeats) per array.
    pub accesses: BTreeMap<String, i64>,
    /// Unique elements touched per array at the outermost level.
    pub unique: BTreeMap<String, i64>,
    /// Total real flop.
    pub flops: i64,
    /// Peak transient footprint in bytes (sum of transient arrays).
    pub transient_bytes: i64,
}

impl TreeStats {
    /// Total moved elements across all arrays.
    pub fn total_accesses(&self) -> i64 {
        self.accesses.values().sum()
    }

    /// Total unique elements across all non-transient arrays.
    pub fn total_unique(&self) -> i64 {
        self.unique.values().sum()
    }
}

impl ScopeTree {
    pub fn new(name: impl Into<String>) -> Self {
        ScopeTree {
            name: name.into(),
            ..Default::default()
        }
    }

    pub fn add_array(&mut self, name: impl Into<String>, desc: ArrayDesc) {
        self.arrays.insert(name.into(), desc);
    }

    /// Validate well-formedness: every access references a declared array
    /// with matching dimensionality; map parameter names are unique within
    /// their nesting path.
    pub fn validate(&self) -> Result<(), String> {
        fn visit(
            tree: &ScopeTree,
            node: &Node,
            mut path_params: Vec<String>,
        ) -> Result<(), String> {
            match node {
                Node::Map {
                    params,
                    body,
                    label,
                } => {
                    for p in params {
                        if path_params.contains(&p.name) {
                            return Err(format!("map `{label}`: duplicate parameter `{}`", p.name));
                        }
                        path_params.push(p.name.clone());
                    }
                    for child in body {
                        visit(tree, child, path_params.clone())?;
                    }
                    Ok(())
                }
                Node::Compute {
                    inputs,
                    outputs,
                    label,
                    ..
                } => {
                    for acc in inputs.iter().chain(outputs) {
                        let desc = tree.arrays.get(&acc.array).ok_or_else(|| {
                            format!("compute `{label}`: unknown array `{}`", acc.array)
                        })?;
                        if acc.subset.ndim() != desc.shape.len() {
                            return Err(format!(
                                "compute `{label}`: array `{}` has {} dims but subset has {}",
                                acc.array,
                                desc.shape.len(),
                                acc.subset.ndim()
                            ));
                        }
                    }
                    Ok(())
                }
            }
        }
        for root in &self.roots {
            visit(self, root, Vec::new())?;
        }
        Ok(())
    }

    /// Propagate every compute access to the outermost level and aggregate
    /// movement + flop statistics, evaluated at concrete bindings.
    pub fn stats(&self, bindings: &Bindings, models: &[IndirectionModel]) -> TreeStats {
        let mut stats = TreeStats::default();
        for root in &self.roots {
            self.visit_stats(root, &mut Vec::new(), bindings, models, &mut stats);
        }
        for (name, desc) in &self.arrays {
            if desc.transient {
                stats.transient_bytes += desc.eval_bytes(bindings);
            }
            let _ = name;
        }
        stats
    }

    fn visit_stats(
        &self,
        node: &Node,
        enclosing: &mut Vec<ParamRange>,
        bindings: &Bindings,
        models: &[IndirectionModel],
        stats: &mut TreeStats,
    ) {
        match node {
            Node::Map { params, body, .. } => {
                let before = enclosing.len();
                enclosing.extend(params.iter().cloned());
                for child in body {
                    self.visit_stats(child, enclosing, bindings, models, stats);
                }
                enclosing.truncate(before);
            }
            Node::Compute {
                inputs,
                outputs,
                flops,
                ..
            } => {
                // Tiled inner ranges reference the outer tile parameter
                // (`kz ∈ [tkz·s, (tkz+1)·s)`): bind each enclosing parameter
                // to its range start while descending so lengths stay
                // evaluable (tile lengths are uniform, so the start value
                // is representative).
                let mut local = bindings.clone();
                let mut map_volume: i64 = 1;
                for p in enclosing.iter() {
                    let len = p.range.eval_length(&local).unwrap_or(0).max(0);
                    map_volume *= len;
                    if let Ok(b) = p.range.begin.eval(&local) {
                        local.insert(p.name.clone(), b);
                    }
                }
                // Flop: per-invocation flops × volume of the enclosing maps.
                stats.flops += flops.eval(&local).unwrap_or(0) * map_volume;
                for acc in inputs.iter().chain(outputs) {
                    let desc = &self.arrays[&acc.array];
                    let prop: PropagatedMemlet =
                        propagate_subset(&acc.subset, enclosing, models, Some(&desc.shape));
                    // Clamp propagated ranges to the array shape before
                    // counting unique elements (offset accesses spill).
                    let mut unique: i64 = 1;
                    for (d, dim) in prop.subset.0.iter().enumerate() {
                        use crate::subset::Dim;
                        let len = match dim {
                            Dim::Index(_) | Dim::Indirect { .. } => 1,
                            Dim::Range(r) => {
                                let n = desc.shape[d].clone();
                                r.clamped(&n).eval_length(bindings).unwrap_or(0)
                            }
                        };
                        unique *= len.max(0);
                    }
                    let accesses = prop.accesses.eval(bindings).unwrap_or(0);
                    *stats.accesses.entry(acc.array.clone()).or_insert(0) += accesses;
                    let u = stats.unique.entry(acc.array.clone()).or_insert(0);
                    // Unique elements of repeated computes on the same array
                    // at top level: take the max cover (they address the
                    // same container).
                    *u = (*u).max(unique);
                }
            }
        }
    }

    /// Find a mutable reference to the map node with the given label
    /// (depth-first).
    pub fn find_map_mut(&mut self, label: &str) -> Option<&mut Node> {
        fn search<'a>(nodes: &'a mut [Node], label: &str) -> Option<&'a mut Node> {
            for node in nodes {
                let is_match = matches!(&node, Node::Map { label: l, .. } if l == label);
                if is_match {
                    return Some(node);
                }
                if let Node::Map { body, .. } = node {
                    if let Some(found) = search(body, label) {
                        return Some(found);
                    }
                }
            }
            None
        }
        search(&mut self.roots, label)
    }

    /// Immutable lookup by label.
    pub fn find_map(&self, label: &str) -> Option<&Node> {
        fn search<'a>(nodes: &'a [Node], label: &str) -> Option<&'a Node> {
            for node in nodes {
                if let Node::Map { label: l, body, .. } = node {
                    if l == label {
                        return Some(node);
                    }
                    if let Some(found) = search(body, label) {
                        return Some(found);
                    }
                }
            }
            None
        }
        search(&self.roots, label)
    }

    /// Number of map nodes in the tree.
    pub fn num_maps(&self) -> usize {
        fn count(nodes: &[Node]) -> usize {
            nodes
                .iter()
                .map(|n| match n {
                    Node::Map { body, .. } => 1 + count(body),
                    Node::Compute { .. } => 0,
                })
                .sum()
        }
        count(&self.roots)
    }
}

impl fmt::Display for ScopeTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn show(node: &Node, indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let pad = "  ".repeat(indent);
            match node {
                Node::Map {
                    label,
                    params,
                    body,
                } => {
                    let ps: Vec<String> = params
                        .iter()
                        .map(|p| format!("{}={}", p.name, p.range))
                        .collect();
                    writeln!(f, "{pad}map {label} [{}]", ps.join(", "))?;
                    for child in body {
                        show(child, indent + 1, f)?;
                    }
                    Ok(())
                }
                Node::Compute {
                    label,
                    inputs,
                    outputs,
                    ..
                } => {
                    let ins: Vec<String> = inputs
                        .iter()
                        .map(|a| format!("{}{}", a.array, a.subset))
                        .collect();
                    let outs: Vec<String> = outputs
                        .iter()
                        .map(|a| {
                            format!(
                                "{}{}{}",
                                a.array,
                                a.subset,
                                if a.wcr_sum { " (CR: Sum)" } else { "" }
                            )
                        })
                        .collect();
                    writeln!(f, "{pad}{label}: {} -> {}", ins.join(", "), outs.join(", "))
                }
            }
        }
        writeln!(f, "state {}", self.name)?;
        for root in &self.roots {
            show(root, 1, f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subset::Dim;

    fn simple_tree() -> ScopeTree {
        // map [i=0:M, j=0:N]: C[i,j] += A[i, 0:K] · B[0:K, j]
        let mut t = ScopeTree::new("matmul");
        let m = SymExpr::sym("M");
        let n = SymExpr::sym("N");
        let k = SymExpr::sym("K");
        t.add_array(
            "A",
            ArrayDesc::new(vec![m.clone(), k.clone()], Dtype::Complex128, false),
        );
        t.add_array(
            "B",
            ArrayDesc::new(vec![k.clone(), n.clone()], Dtype::Complex128, false),
        );
        t.add_array(
            "C",
            ArrayDesc::new(vec![m.clone(), n.clone()], Dtype::Complex128, false),
        );
        let body = Node::compute(
            "dot",
            OpKind::Tasklet,
            vec![
                Access::read(
                    "A",
                    Subset::new(vec![Dim::idx(SymExpr::sym("i")), Dim::full(k.clone())]),
                ),
                Access::read(
                    "B",
                    Subset::new(vec![Dim::full(k.clone()), Dim::idx(SymExpr::sym("j"))]),
                ),
            ],
            vec![Access::accumulate(
                "C",
                Subset::new(vec![
                    Dim::idx(SymExpr::sym("i")),
                    Dim::idx(SymExpr::sym("j")),
                ]),
            )],
            SymExpr::int(8) * k.clone(),
        );
        t.roots.push(Node::map(
            "mm",
            vec![ParamRange::new("i", 0, m), ParamRange::new("j", 0, n)],
            vec![body],
        ));
        t
    }

    fn bind(pairs: &[(&str, i64)]) -> Bindings {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn validation_passes_and_detects_errors() {
        let t = simple_tree();
        assert!(t.validate().is_ok());
        let mut broken = t.clone();
        if let Node::Map { body, .. } = &mut broken.roots[0] {
            if let Node::Compute { inputs, .. } = &mut body[0] {
                inputs[0].array = "nonexistent".into();
            }
        }
        assert!(broken.validate().is_err());
    }

    #[test]
    fn matmul_movement_characteristics() {
        // Fig. 4: A moved M*K*N times (via map), unique M*K; similarly B, C.
        let t = simple_tree();
        let b = bind(&[("M", 4), ("N", 5), ("K", 6)]);
        let stats = t.stats(&b, &[]);
        assert_eq!(stats.accesses["A"], 4 * 5 * 6);
        assert_eq!(stats.accesses["B"], 4 * 5 * 6);
        assert_eq!(stats.accesses["C"], 4 * 5);
        assert_eq!(stats.unique["A"], 4 * 6);
        assert_eq!(stats.unique["B"], 6 * 5);
        assert_eq!(stats.unique["C"], 4 * 5);
        assert_eq!(stats.flops, 8 * 6 * 4 * 5);
    }

    #[test]
    fn duplicate_params_rejected() {
        let mut t = simple_tree();
        // Nest a map with a clashing parameter name.
        if let Node::Map { body, .. } = &mut t.roots[0] {
            let inner = Node::map("clash", vec![ParamRange::new("i", 0, 4)], vec![]);
            body.push(inner);
        }
        assert!(t.validate().is_err());
    }

    #[test]
    fn find_map_by_label() {
        let mut t = simple_tree();
        assert!(t.find_map("mm").is_some());
        assert!(t.find_map("nope").is_none());
        assert!(t.find_map_mut("mm").is_some());
        assert_eq!(t.num_maps(), 1);
    }

    #[test]
    fn transient_footprint_counted() {
        let mut t = simple_tree();
        t.add_array(
            "tmp",
            ArrayDesc::new(
                vec![SymExpr::sym("M"), SymExpr::sym("K")],
                Dtype::Complex128,
                true,
            ),
        );
        let b = bind(&[("M", 4), ("N", 5), ("K", 6)]);
        let stats = t.stats(&b, &[]);
        assert_eq!(stats.transient_bytes, 4 * 6 * 16);
    }

    #[test]
    fn display_renders() {
        let t = simple_tree();
        let s = format!("{t}");
        assert!(s.contains("map mm"));
        assert!(s.contains("CR: Sum"));
    }
}

//! The full stateful dataflow multigraph: dataflow states (scope trees)
//! connected by interstate edges with conditions and assignments — the
//! top-level view of Fig. 6, where GF and SSE states alternate inside a
//! convergence loop (`i = 0`, `i++`, `convergence`).

use crate::graph::StateGraph;
use crate::stree::ScopeTree;
use qt_telemetry::json::Json;
use std::fmt::Write as _;

/// Transition between two states.
#[derive(Clone, Debug)]
pub struct InterstateEdge {
    pub from: usize,
    pub to: usize,
    /// Guard condition (opaque string, e.g. `"not converged"`).
    pub condition: Option<String>,
    /// Symbol assignments executed on the transition (e.g. `i = i + 1`).
    pub assignments: Vec<(String, String)>,
}

/// A stateful dataflow multigraph: states plus control-flow edges.
#[derive(Clone, Debug, Default)]
pub struct Sdfg {
    pub name: String,
    pub states: Vec<ScopeTree>,
    pub edges: Vec<InterstateEdge>,
    /// Index of the start state.
    pub start: usize,
}

impl Sdfg {
    pub fn new(name: impl Into<String>) -> Self {
        Sdfg {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Append a state, returning its index.
    pub fn add_state(&mut self, state: ScopeTree) -> usize {
        self.states.push(state);
        self.states.len() - 1
    }

    /// Connect two states.
    pub fn add_edge(
        &mut self,
        from: usize,
        to: usize,
        condition: Option<&str>,
        assignments: &[(&str, &str)],
    ) {
        self.edges.push(InterstateEdge {
            from,
            to,
            condition: condition.map(|s| s.to_string()),
            assignments: assignments
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }

    /// Validate: edge endpoints exist, the start state exists, every state
    /// is internally valid, and every non-final state is reachable.
    pub fn validate(&self) -> Result<(), String> {
        if self.states.is_empty() {
            return Err("SDFG has no states".into());
        }
        if self.start >= self.states.len() {
            return Err("start state out of range".into());
        }
        for e in &self.edges {
            if e.from >= self.states.len() || e.to >= self.states.len() {
                return Err(format!("edge {} -> {} out of range", e.from, e.to));
            }
        }
        for st in &self.states {
            st.validate()
                .map_err(|m| format!("state `{}`: {m}", st.name))?;
        }
        // Reachability from start.
        let mut reach = vec![false; self.states.len()];
        let mut stack = vec![self.start];
        while let Some(s) = stack.pop() {
            if reach[s] {
                continue;
            }
            reach[s] = true;
            for e in &self.edges {
                if e.from == s {
                    stack.push(e.to);
                }
            }
        }
        if let Some(unreached) = reach.iter().position(|&r| !r) {
            return Err(format!(
                "state `{}` unreachable",
                self.states[unreached].name
            ));
        }
        Ok(())
    }

    /// GraphViz rendering of the state machine, with each state's dataflow
    /// as a clustered subgraph.
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.name);
        let _ = writeln!(out, "  compound=true;");
        for (i, st) in self.states.iter().enumerate() {
            let _ = writeln!(out, "  subgraph cluster_{i} {{");
            let _ = writeln!(out, "    label=\"{}\";", st.name);
            // Embed the state's flat graph with prefixed node ids.
            let g = StateGraph::from_tree(st);
            for (n, node) in g.nodes.iter().enumerate() {
                let label = format!("{node:?}").replace('"', "'");
                let _ = writeln!(out, "    s{i}_n{n} [label=\"{label}\"];");
            }
            for e in &g.edges {
                let _ = writeln!(out, "    s{i}_n{} -> s{i}_n{};", e.src, e.dst);
            }
            // Anchor node so interstate edges have endpoints.
            let _ = writeln!(out, "    s{i}_anchor [shape=point, style=invis];");
            let _ = writeln!(out, "  }}");
        }
        for e in &self.edges {
            let mut label = String::new();
            if let Some(c) = &e.condition {
                label.push_str(c);
            }
            for (k, v) in &e.assignments {
                if !label.is_empty() {
                    label.push_str("; ");
                }
                let _ = write!(label, "{k} = {v}");
            }
            let _ = writeln!(
                out,
                "  s{}_anchor -> s{}_anchor [ltail=cluster_{}, lhead=cluster_{}, label=\"{}\"];",
                e.from,
                e.to,
                e.from,
                e.to,
                label.replace('"', "'")
            );
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// Serialize to JSON (the SDFG-file analogue; the paper's 2,015-node
    /// SDFG is an artifact of exactly this kind).
    pub fn to_json(&self) -> String {
        crate::json::encode(self).dump()
    }

    /// Deserialize from JSON. Malformed input is an `Err`, never a panic.
    pub fn from_json(s: &str) -> Result<Sdfg, String> {
        crate::json::decode(&Json::parse(s)?)
    }
}

/// Build the complete Fig. 6 SDFG: an init state, the GF state (electron +
/// phonon maps), the SSE state, and the convergence loop
/// (`i = 0` → GF → SSE → GF … while `not converged and i < max_iter`).
pub fn qt_simulation_sdfg() -> Sdfg {
    let mut sdfg = Sdfg::new("qt_simulation");
    let states = crate::library::qt_toplevel();
    let mut it = states.into_iter();
    let gf = it.next().expect("GF state");
    let sse = it.next().expect("SSE state");
    let init = ScopeTree::new("init");
    let s_init = sdfg.add_state(init);
    let s_gf = sdfg.add_state(gf);
    let s_sse = sdfg.add_state(sse);
    let s_end = sdfg.add_state(ScopeTree::new("end"));
    sdfg.start = s_init;
    sdfg.add_edge(s_init, s_gf, None, &[("i", "0")]);
    sdfg.add_edge(s_gf, s_sse, Some("not converged"), &[]);
    sdfg.add_edge(s_sse, s_gf, None, &[("i", "i + 1")]);
    sdfg.add_edge(s_gf, s_end, Some("converged"), &[]);
    sdfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qt_simulation_validates() {
        let sdfg = qt_simulation_sdfg();
        assert!(sdfg.validate().is_ok());
        assert_eq!(sdfg.states.len(), 4);
        // The loop: GF -> SSE and SSE -> GF both exist.
        assert!(sdfg.edges.iter().any(|e| e.from == 1 && e.to == 2));
        assert!(sdfg.edges.iter().any(|e| e.from == 2 && e.to == 1));
    }

    /// A two-state SDFG holding every variant of the serialized types at
    /// least once, with expression trees built raw so no simplification
    /// reshapes them.
    fn every_variant_sdfg() -> Sdfg {
        use crate::propagate::ParamRange;
        use crate::stree::{Access, ArrayDesc, Dtype, Node, OpKind};
        use crate::subset::{Dim, Range, Subset};
        use crate::symexpr::SymExpr;
        let s = SymExpr::sym;
        let raw = |f: fn(Box<SymExpr>, Box<SymExpr>) -> SymExpr, l, r| f(Box::new(l), Box::new(r));
        // `a*b*c` grouped both ways: `Display` prints them alike.
        let ab_c = raw(SymExpr::Mul, raw(SymExpr::Mul, s("a"), s("b")), s("c"));
        let a_bc = raw(SymExpr::Mul, s("a"), raw(SymExpr::Mul, s("b"), s("c")));
        let mut st = ScopeTree::new("every_variant");
        st.add_array(
            "A",
            ArrayDesc::new(vec![s("N"), ab_c], Dtype::Complex128, false),
        );
        st.add_array("B", ArrayDesc::new(vec![a_bc], Dtype::Float64, true));
        st.add_array(
            "idx",
            ArrayDesc::new(vec![SymExpr::int(-7)], Dtype::Int32, false),
        );
        st.indirection_tables.push("f".into());
        let strided = Range {
            begin: raw(SymExpr::Min, SymExpr::int(0), s("i")),
            end: raw(SymExpr::Max, s("N"), SymExpr::int(-3)),
            stride: Some(raw(SymExpr::Div, s("N"), SymExpr::int(4))),
        };
        let a = Subset(vec![
            Dim::Index(raw(SymExpr::Sub, s("i"), SymExpr::int(1))),
            Dim::Range(strided),
        ]);
        let b = Subset(vec![Dim::Indirect {
            table: "f".into(),
            args: vec![s("i"), raw(SymExpr::Add, s("j"), SymExpr::int(2))],
        }]);
        let idx = Subset(vec![Dim::Range(Range::full(SymExpr::int(-7)))]);
        let compute = |label: &str, op| {
            Node::compute(
                label,
                op,
                vec![
                    Access::read("A", a.clone()),
                    Access::read("idx", idx.clone()),
                ],
                vec![Access::accumulate("B", b.clone())],
                SymExpr::int(8),
            )
        };
        let params = vec![
            ParamRange::new("i", 0, s("N")),
            ParamRange::new("j", SymExpr::int(-2), 5),
        ];
        st.roots.push(Node::map(
            "outer",
            params,
            vec![
                compute("mm", OpKind::MatMul),
                compute("sm", OpKind::ScalarMul),
                compute("t", OpKind::Tasklet),
                compute("bg", OpKind::BatchedGemm { batch: s("Nkz") }),
            ],
        ));
        let mut sdfg = Sdfg::new("every_variant");
        let s0 = sdfg.add_state(ScopeTree::new("init"));
        let s1 = sdfg.add_state(st);
        sdfg.add_edge(s0, s1, None, &[("i", "0"), ("j", "i + 1")]);
        sdfg.add_edge(s1, s1, Some("not done"), &[]);
        sdfg
    }

    #[test]
    fn json_roundtrip_preserves_structure() {
        for sdfg in [qt_simulation_sdfg(), every_variant_sdfg()] {
            let json = sdfg.to_json();
            let back = Sdfg::from_json(&json).expect("parse");
            assert_eq!(back.states.len(), sdfg.states.len());
            assert_eq!(back.edges.len(), sdfg.edges.len());
            assert!(back.validate().is_ok());
            // The GF state's arrays survive the round trip.
            assert_eq!(back.states[1].arrays.len(), sdfg.states[1].arrays.len());
            // Deep check: re-serialization is stable.
            assert_eq!(back.to_json(), json);
            // Deeper: the decoded value is the encoded one, tree for tree.
            assert_eq!(format!("{back:?}"), format!("{sdfg:?}"));
        }
    }

    #[test]
    fn malformed_json_is_an_error() {
        let json = every_variant_sdfg().to_json();
        let err = |from: &str, to: &str| {
            assert!(json.contains(from), "{from}");
            Sdfg::from_json(&json.replacen(from, to, 1)).unwrap_err()
        };
        assert!(err("-7", "-7.5").contains("not an integer"));
        assert!(err("-7", "1152921504606846976").contains("2^53")); // 2^60
        assert!(err("\"Map\"", "\"Loop\"").contains("unknown Node variant `Loop`"));
        assert!(err("\"Tasklet\"", "\"Kernel\"").contains("unknown OpKind variant"));
        assert!(err("\"BatchedGemm\"", "\"Gemm\"").contains("unknown OpKind variant"));
        assert!(err("\"Indirect\"", "\"Gather\"").contains("unknown Dim variant"));
        assert!(err("\"Float64\"", "\"Float16\"").contains("unknown Dtype variant"));
        assert!(err("\"min\",", "\"mod\",").contains("unknown SymExpr variant `mod`"));
        assert!(err("\"wcr_sum\"", "\"wcr\"").contains("missing field `wcr_sum`"));
        assert!(err("\"start\"", "\"begin\"").contains("missing field `start`"));
        assert!(err("\"transient\": true", "\"transient\": 1").contains("expected a boolean"));
        // The exact-integer edge still loads.
        let edge = json.replacen("-7", "-9007199254740992", 1);
        assert!(Sdfg::from_json(&edge).is_ok());
        assert!(Sdfg::from_json("[]").is_err());
        assert!(Sdfg::from_json(&json[..json.len() / 2]).is_err());
    }

    #[test]
    fn validation_catches_broken_graphs() {
        let mut sdfg = qt_simulation_sdfg();
        sdfg.edges[0].to = 99;
        assert!(sdfg.validate().is_err());
        let mut sdfg = qt_simulation_sdfg();
        sdfg.edges.clear();
        assert!(sdfg.validate().is_err(), "states become unreachable");
        let empty = Sdfg::new("empty");
        assert!(empty.validate().is_err());
    }

    #[test]
    fn dot_renders_state_machine() {
        let sdfg = qt_simulation_sdfg();
        let dot = sdfg.to_dot();
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("not converged"));
        assert!(dot.contains("i = i + 1"));
    }

    #[test]
    fn transformed_state_still_serializes() {
        use crate::library;
        let b: crate::symexpr::Bindings = [
            ("Nkz", 2i64),
            ("NE", 8),
            ("Nqz", 2),
            ("Nw", 2),
            ("N3D", 3),
            ("NA", 8),
            ("NB", 3),
            ("Norb", 2),
        ]
        .iter()
        .map(|&(k, v)| (k.to_string(), v))
        .collect();
        let mut tree = library::sse_sigma_tree();
        library::transform_sse_sigma(&mut tree, &b).unwrap();
        let mut sdfg = Sdfg::new("transformed");
        sdfg.add_state(tree);
        let json = sdfg.to_json();
        let back = Sdfg::from_json(&json).unwrap();
        assert!(back.states[0].validate().is_ok());
    }
}

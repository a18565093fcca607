//! The SDFG's JSON form over `qt_telemetry::json`. Structs are objects
//! keyed by field name; a fieldless variant is its name, one with data a
//! one-key object `{"Variant": data}`; a `None` stride is left out. A
//! [`SymExpr`] is an explicit tree (a number, a string, or `[op, lhs, rhs]`
//! for `+ - * / min max`) rebuilt variant by variant, unsimplified.
//! Decoding fails closed: a missing field, unknown tag, wrong type, or
//! `Const` that is not an integer within ±2^53 is an `Err`, never a panic.

use crate::propagate::ParamRange;
use crate::sdfg::{InterstateEdge, Sdfg};
use crate::stree::{Access, ArrayDesc, Dtype, Node, OpKind, ScopeTree};
use crate::subset::{Dim, Range, Subset};
use crate::symexpr::SymExpr;
use qt_telemetry::json::Json;

type Res<T> = Result<T, String>;

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}
fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}
fn list<T>(items: &[T], f: impl Fn(&T) -> Json) -> Json {
    Json::Arr(items.iter().map(f).collect())
}

fn want<T>(v: Option<T>, what: &str) -> Res<T> {
    v.ok_or_else(|| format!("expected {what}"))
}
fn field<'a>(j: &'a Json, key: &str) -> Res<&'a Json> {
    j.get(key).ok_or_else(|| format!("missing field `{key}`"))
}
fn string(j: &Json) -> Res<String> {
    want(j.as_str(), "a string").map(str::to_string)
}
fn items<T>(j: &Json, f: impl Fn(&Json) -> Res<T>) -> Res<Vec<T>> {
    want(j.as_array(), "an array")?.iter().map(f).collect()
}

/// The tag and data of a one-key `{"Variant": data}` object.
fn variant(j: &Json) -> Res<(&str, &Json)> {
    match j {
        Json::Obj(fields) if fields.len() == 1 => Ok((&fields[0].0, &fields[0].1)),
        _ => Err("expected a one-key variant object".into()),
    }
}

/// The fieldless variant among `all` whose name (its `Debug` form) is `tag`.
fn named<T: std::fmt::Debug, const N: usize>(ty: &str, all: [T; N], tag: &str) -> Res<T> {
    let found = all.into_iter().find(|v| format!("{v:?}") == tag);
    found.ok_or_else(|| format!("unknown {ty} variant `{tag}`"))
}

pub(crate) fn encode(s: &Sdfg) -> Json {
    obj(vec![
        ("name", text(&s.name)),
        ("states", list(&s.states, tree)),
        ("edges", list(&s.edges, edge)),
        ("start", Json::Num(s.start as f64)),
    ])
}

pub(crate) fn decode(j: &Json) -> Res<Sdfg> {
    Ok(Sdfg {
        name: string(field(j, "name")?)?,
        states: items(field(j, "states")?, tree_from)?,
        edges: items(field(j, "edges")?, edge_from)?,
        start: want(field(j, "start")?.as_u64(), "an index")? as usize,
    })
}

fn edge(e: &InterstateEdge) -> Json {
    let pair = |(k, v): &(String, String)| Json::Arr(vec![text(k), text(v)]);
    obj(vec![
        ("from", Json::Num(e.from as f64)),
        ("to", Json::Num(e.to as f64)),
        ("condition", e.condition.as_deref().map_or(Json::Null, text)),
        ("assignments", list(&e.assignments, pair)),
    ])
}

fn edge_from(j: &Json) -> Res<InterstateEdge> {
    let pair = |a: &Json| match a.as_array() {
        Some([k, v]) => Ok((string(k)?, string(v)?)),
        _ => Err("expected a [symbol, value] pair".to_string()),
    };
    let cond = field(j, "condition")?;
    Ok(InterstateEdge {
        from: want(field(j, "from")?.as_u64(), "an index")? as usize,
        to: want(field(j, "to")?.as_u64(), "an index")? as usize,
        condition: (*cond != Json::Null).then(|| string(cond)).transpose()?,
        assignments: items(field(j, "assignments")?, pair)?,
    })
}

fn tree(t: &ScopeTree) -> Json {
    let arrays = t.arrays.iter().map(|(k, a)| (k.clone(), array(a)));
    let tables = list(&t.indirection_tables, |s| text(s));
    obj(vec![
        ("name", text(&t.name)),
        ("arrays", Json::Obj(arrays.collect())),
        ("roots", list(&t.roots, node)),
        ("indirection_tables", tables),
    ])
}

fn tree_from(j: &Json) -> Res<ScopeTree> {
    let Json::Obj(arrays) = field(j, "arrays")? else {
        return Err("expected `arrays` to be an object".into());
    };
    let array = |(k, a): &(String, Json)| Ok((k.clone(), array_from(a)?));
    Ok(ScopeTree {
        name: string(field(j, "name")?)?,
        arrays: arrays.iter().map(array).collect::<Res<_>>()?,
        roots: items(field(j, "roots")?, node_from)?,
        indirection_tables: items(field(j, "indirection_tables")?, string)?,
    })
}

fn array(a: &ArrayDesc) -> Json {
    obj(vec![
        ("shape", list(&a.shape, expr)),
        ("dtype", text(&format!("{:?}", a.dtype))),
        ("transient", Json::Bool(a.transient)),
    ])
}

fn array_from(j: &Json) -> Res<ArrayDesc> {
    let all = [Dtype::Complex128, Dtype::Float64, Dtype::Int32];
    Ok(ArrayDesc {
        shape: items(field(j, "shape")?, expr_from)?,
        dtype: named("Dtype", all, &string(field(j, "dtype")?)?)?,
        transient: want(field(j, "transient")?.as_bool(), "a boolean")?,
    })
}

fn node(n: &Node) -> Json {
    let (tag, mut fields) = match n {
        Node::Map { params, body, .. } => (
            "Map",
            vec![("params", list(params, param)), ("body", list(body, node))],
        ),
        Node::Compute {
            op,
            inputs,
            outputs,
            flops,
            ..
        } => (
            "Compute",
            vec![
                ("op", op_kind(op)),
                ("inputs", list(inputs, access)),
                ("outputs", list(outputs, access)),
                ("flops", expr(flops)),
            ],
        ),
    };
    fields.insert(0, ("label", text(n.label())));
    obj(vec![(tag, obj(fields))])
}

fn node_from(j: &Json) -> Res<Node> {
    let (tag, d) = variant(j)?;
    let label = string(field(d, "label")?)?;
    match tag {
        "Map" => Ok(Node::Map {
            label,
            params: items(field(d, "params")?, param_from)?,
            body: items(field(d, "body")?, node_from)?,
        }),
        "Compute" => Ok(Node::Compute {
            label,
            op: op_kind_from(field(d, "op")?)?,
            inputs: items(field(d, "inputs")?, access_from)?,
            outputs: items(field(d, "outputs")?, access_from)?,
            flops: expr_from(field(d, "flops")?)?,
        }),
        t => Err(format!("unknown Node variant `{t}`")),
    }
}

fn op_kind(op: &OpKind) -> Json {
    match op {
        OpKind::BatchedGemm { batch } => obj(vec![("BatchedGemm", expr(batch))]),
        unit => text(&format!("{unit:?}")),
    }
}

fn op_kind_from(j: &Json) -> Res<OpKind> {
    if let Some(tag) = j.as_str() {
        let units = [OpKind::MatMul, OpKind::ScalarMul, OpKind::Tasklet];
        return named("OpKind", units, tag);
    }
    match variant(j)? {
        ("BatchedGemm", d) => expr_from(d).map(|batch| OpKind::BatchedGemm { batch }),
        (t, _) => Err(format!("unknown OpKind variant `{t}`")),
    }
}

fn access(a: &Access) -> Json {
    obj(vec![
        ("array", text(&a.array)),
        ("subset", list(&a.subset.0, dim)),
        ("wcr_sum", Json::Bool(a.wcr_sum)),
    ])
}

fn access_from(j: &Json) -> Res<Access> {
    Ok(Access {
        array: string(field(j, "array")?)?,
        subset: Subset(items(field(j, "subset")?, dim_from)?),
        wcr_sum: want(field(j, "wcr_sum")?.as_bool(), "a boolean")?,
    })
}

fn param(p: &ParamRange) -> Json {
    obj(vec![("name", text(&p.name)), ("range", range(&p.range))])
}

fn param_from(j: &Json) -> Res<ParamRange> {
    let (name, range) = (string(field(j, "name")?)?, range_from(field(j, "range")?)?);
    Ok(ParamRange { name, range })
}

fn dim(d: &Dim) -> Json {
    match d {
        Dim::Index(e) => obj(vec![("Index", expr(e))]),
        Dim::Range(r) => obj(vec![("Range", range(r))]),
        Dim::Indirect { table, args } => {
            let fields = vec![("table", text(table)), ("args", list(args, expr))];
            obj(vec![("Indirect", obj(fields))])
        }
    }
}

fn dim_from(j: &Json) -> Res<Dim> {
    match variant(j)? {
        ("Index", d) => Ok(Dim::Index(expr_from(d)?)),
        ("Range", d) => Ok(Dim::Range(range_from(d)?)),
        ("Indirect", d) => {
            let args = items(field(d, "args")?, expr_from)?;
            string(field(d, "table")?).map(|table| Dim::Indirect { table, args })
        }
        (t, _) => Err(format!("unknown Dim variant `{t}`")),
    }
}

fn range(r: &Range) -> Json {
    let stride = r.stride.as_ref().map(|s| ("stride", expr(s)));
    let bounds = [("begin", expr(&r.begin)), ("end", expr(&r.end))];
    obj(bounds.into_iter().chain(stride).collect())
}

fn range_from(j: &Json) -> Res<Range> {
    Ok(Range {
        begin: expr_from(field(j, "begin")?)?,
        end: expr_from(field(j, "end")?)?,
        stride: j.get("stride").map(expr_from).transpose()?,
    })
}

fn expr(e: &SymExpr) -> Json {
    let (op, l, r) = match e {
        SymExpr::Const(v) => return Json::Num(*v as f64),
        SymExpr::Sym(s) => return text(s),
        SymExpr::Add(l, r) => ("+", l, r),
        SymExpr::Sub(l, r) => ("-", l, r),
        SymExpr::Mul(l, r) => ("*", l, r),
        SymExpr::Div(l, r) => ("/", l, r),
        SymExpr::Min(l, r) => ("min", l, r),
        SymExpr::Max(l, r) => ("max", l, r),
    };
    Json::Arr(vec![text(op), expr(l), expr(r)])
}

fn expr_from(j: &Json) -> Res<SymExpr> {
    let exact = |v: f64| v.fract() == 0.0 && v.abs() <= 2f64.powi(53);
    let [op, l, r]: &[Json; 3] = match j {
        Json::Num(v) if exact(*v) => return Ok(SymExpr::Const(*v as i64)),
        Json::Num(v) => return Err(format!("constant {v} is not an integer within ±2^53")),
        Json::Str(s) => return Ok(SymExpr::Sym(s.clone())),
        Json::Arr(p) => want(p.as_slice().try_into().ok(), "[op, lhs, rhs]")?,
        _ => return Err("expected an expression".into()),
    };
    let node = match string(op)?.as_str() {
        "+" => SymExpr::Add,
        "-" => SymExpr::Sub,
        "*" => SymExpr::Mul,
        "/" => SymExpr::Div,
        "min" => SymExpr::Min,
        "max" => SymExpr::Max,
        t => return Err(format!("unknown SymExpr variant `{t}`")),
    };
    Ok(node(Box::new(expr_from(l)?), Box::new(expr_from(r)?)))
}

//! Graphviz (DOT) export.
//!
//! Used by the figure-construction experiments (`fig1`–`fig4`) to emit the
//! paper's model diagrams from our own data structures: the S-D-network of
//! Fig. 1, the extended graph `G*` of Fig. 2/4, and the min-cut partition of
//! Fig. 3 (via [`DotStyle::node_attrs`] per-node styling).

use std::fmt::Write as _;

use crate::{MultiGraph, NodeId};

/// Per-node / per-edge styling hooks for DOT export.
pub struct DotStyle<'a> {
    /// Graph name used in the `graph <name> { ... }` header.
    pub name: &'a str,
    /// Extra attributes per node, e.g. `shape=doublecircle,color=red`.
    /// Return an empty string for default styling.
    pub node_attrs: Box<dyn Fn(NodeId) -> String + 'a>,
    /// Node label; defaults to the node id when `None` is returned.
    pub node_label: Box<dyn Fn(NodeId) -> Option<String> + 'a>,
}

impl<'a> Default for DotStyle<'a> {
    fn default() -> Self {
        DotStyle {
            name: "G",
            node_attrs: Box::new(|_| String::new()),
            node_label: Box::new(|_| None),
        }
    }
}

/// Renders `g` as an undirected Graphviz graph with default styling.
pub fn to_dot(g: &MultiGraph) -> String {
    to_dot_styled(g, &DotStyle::default())
}

/// Renders `g` as an undirected Graphviz graph with custom styling.
pub fn to_dot_styled(g: &MultiGraph, style: &DotStyle<'_>) -> String {
    let mut out = String::with_capacity(64 + 24 * (g.node_count() + g.edge_count()));
    writeln!(out, "graph {} {{", sanitize(style.name)).unwrap();
    writeln!(out, "  node [shape=circle];").unwrap();
    for v in g.nodes() {
        let label = (style.node_label)(v).unwrap_or_else(|| v.to_string());
        let attrs = (style.node_attrs)(v);
        if attrs.is_empty() {
            writeln!(out, "  {} [label=\"{}\"];", v.index(), escape(&label)).unwrap();
        } else {
            writeln!(
                out,
                "  {} [label=\"{}\",{}];",
                v.index(),
                escape(&label),
                attrs
            )
            .unwrap();
        }
    }
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        writeln!(out, "  {} -- {};", u.index(), v.index()).unwrap();
    }
    writeln!(out, "}}").unwrap();
    out
}

fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "G".to_string()
    } else {
        cleaned
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let g = generators::path(3);
        let dot = to_dot(&g);
        assert!(dot.starts_with("graph G {"));
        assert!(dot.contains("0 [label=\"v0\"];"));
        assert!(dot.contains("2 [label=\"v2\"];"));
        assert!(dot.contains("0 -- 1;"));
        assert!(dot.contains("1 -- 2;"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn parallel_edges_emitted_separately() {
        let g = generators::parallel_pair(3);
        let dot = to_dot(&g);
        assert_eq!(dot.matches("0 -- 1;").count(), 3);
    }

    #[test]
    fn styled_export_applies_attrs_and_labels() {
        let g = generators::path(2);
        let style = DotStyle {
            name: "fig 1",
            node_attrs: Box::new(|v| {
                if v.index() == 0 {
                    "color=red".into()
                } else {
                    String::new()
                }
            }),
            node_label: Box::new(|v| (v.index() == 1).then(|| "d\"1".to_string())),
        };
        let dot = to_dot_styled(&g, &style);
        assert!(dot.starts_with("graph fig_1 {"));
        assert!(dot.contains("0 [label=\"v0\",color=red];"));
        assert!(dot.contains("1 [label=\"d\\\"1\"];"));
    }

    #[test]
    fn empty_name_falls_back() {
        assert_eq!(sanitize(""), "G");
        assert_eq!(sanitize("a-b c"), "a_b_c");
    }
}

//! Synthetic architectures and graph padding for the Fig. 5 experiments.
//!
//! The paper evaluates "the influence of the computation method complexity
//! on the achieved simulation speed-up" by varying, independently,
//!
//! * the **size of vector `X(k)`** — how many evolution instants (and thus
//!   saved events) one iteration involves, controlled here by the length of
//!   a synthetic pipeline ([`pipeline`]); and
//! * the **number of nodes** of the temporal dependency graph used to
//!   perform the computation, controlled here by [`pad`]: extra
//!   computation-only nodes that `ComputeInstant()` must traverse without
//!   changing any computed instant.

use evolve_model::{
    Application, Architecture, Behavior, Concurrency, LoadModel, Mapping, ModelError, Platform,
    RelationId,
};

use crate::tdg::{NodeKind, Tdg, TdgBuilder, Weight};

/// A synthetic linear pipeline: `stages` functions, each
/// `read → execute → write`, each on its own sequential resource.
///
/// The derived graph of an `n`-stage pipeline has `3n + 2` nodes before
/// simplification (one exchange per relation plus exec start/end pairs), so
/// `stages` directly controls the paper's `X` size.
#[derive(Clone, Debug)]
pub struct Pipeline {
    /// The architecture.
    pub arch: Architecture,
    /// External input relation.
    pub input: RelationId,
    /// External output relation.
    pub output: RelationId,
}

/// Builds a pipeline of `stages` functions with `base + per_unit×size`
/// loads.
///
/// # Errors
///
/// Propagates validation errors (none occur for well-formed parameters).
///
/// # Panics
///
/// Panics if `stages == 0`.
pub fn pipeline(stages: usize, base: u64, per_unit: u64) -> Result<Pipeline, ModelError> {
    assert!(stages > 0, "pipeline needs at least one stage");
    let mut app = Application::new();
    let mut platform = Platform::new();
    let mut mapping = Mapping::new();
    let input = app.add_input("in", evolve_model::RelationKind::Rendezvous);
    let mut upstream = input;
    let mut output = input;
    for s in 0..stages {
        let next = if s + 1 == stages {
            app.add_output(format!("r{}", s + 1), evolve_model::RelationKind::Rendezvous)
        } else {
            app.add_relation(format!("r{}", s + 1), evolve_model::RelationKind::Rendezvous)
        };
        let f = app.add_function(
            format!("F{s}"),
            Behavior::new()
                .read(upstream)
                .execute(LoadModel::PerUnit { base, per_unit })
                .write(next),
        );
        let p = platform.add_resource(format!("P{s}"), Concurrency::Sequential, 1);
        mapping.assign(f, p);
        upstream = next;
        output = next;
    }
    Ok(Pipeline {
        arch: Architecture::new(app, platform, mapping)?,
        input,
        output,
    })
}

/// Appends `extra` computation-only [`NodeKind::Padding`] nodes to a graph.
///
/// The padding forms a chain hanging off the first input (or the first
/// node), ending nowhere: every padded node is computed once per iteration
/// — pure `ComputeInstant()` overhead — without influencing any instant.
/// This is the x-axis knob of the paper's Fig. 5.
///
/// # Panics
///
/// Panics if the graph is empty.
pub fn pad(tdg: &Tdg, extra: usize) -> Tdg {
    assert!(tdg.node_count() > 0, "cannot pad an empty graph");
    let mut b = TdgBuilder::new();
    let mut remap = Vec::with_capacity(tdg.node_count());
    for node in tdg.nodes() {
        remap.push(b.add_node(node.name.clone(), node.kind));
    }
    for arc in tdg.arcs() {
        b.add_arc(
            remap[arc.src.index()],
            remap[arc.dst.index()],
            arc.delay,
            arc.weight.clone(),
        );
    }
    let mut tail = tdg
        .inputs()
        .first()
        .map(|&n| remap[n.index()])
        .unwrap_or(remap[0]);
    for i in 0..extra {
        let p = b.add_node(format!("pad{i}"), NodeKind::Padding);
        b.add_arc(tail, p, 0, Weight::e());
        tail = p;
    }
    b.build().expect("padding cannot create cycles")
}

/// Pads `tdg` up to `target` total nodes — a no-op (clone) when the graph
/// is already at or above the target.
///
/// This is the node-count axis of the Fig. 5 grids in absolute terms; the
/// largest published batch point sits at 50 000 nodes, and both the
/// builder and the compiled schedule scale linearly to it (pinned by
/// `padding_scales_to_the_largest_fig5_point`).
///
/// # Panics
///
/// Panics if the graph is empty (see [`pad`]).
pub fn pad_to(tdg: &Tdg, target: usize) -> Tdg {
    let extra = target.saturating_sub(tdg.node_count());
    if extra == 0 {
        return tdg.clone();
    }
    pad(tdg, extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{derive_tdg, Engine};
    use evolve_des::Time;

    #[test]
    fn pipeline_shape() {
        let p = pipeline(4, 100, 1).unwrap();
        assert_eq!(p.arch.app().functions().len(), 4);
        assert_eq!(p.arch.app().relations().len(), 5);
        let derived = derive_tdg(&p.arch).unwrap();
        assert_eq!(derived.tdg().node_count(), 3 * 4 + 5 + 1 - 4);
        // = 1 input + 5 exchange/output + 8 exec nodes = 14 nodes.
        assert_eq!(derived.tdg().node_count(), 14);
    }

    #[test]
    fn padding_preserves_instants() {
        let p = pipeline(3, 50, 0).unwrap();
        let derived = derive_tdg(&p.arch).unwrap();
        let rels = p.arch.app().relations().len();

        let run = |tdg_padding: usize| {
            let mut d = derived.clone();
            if tdg_padding > 0 {
                d.map_tdg(|tdg| pad(tdg, tdg_padding));
            }
            let mut e = Engine::new(d, rels, true);
            for k in 0..5 {
                e.set_input(0, k, Time::from_ticks(k * 10), 4);
            }
            (0..rels)
                .map(|r| e.instants(r).to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(0), run(200), "padding must not change any instant");
    }

    #[test]
    fn padding_costs_compute() {
        let p = pipeline(2, 10, 0).unwrap();
        let derived = derive_tdg(&p.arch).unwrap();
        let rels = p.arch.app().relations().len();
        let padded =
            crate::derive::DerivedTdg::new(pad(derived.tdg(), 100), derived.size_rules().to_vec());
        let mut plain = Engine::new(derived, rels, true);
        let mut heavy = Engine::new(padded, rels, true);
        plain.set_input(0, 0, Time::ZERO, 1);
        heavy.set_input(0, 0, Time::ZERO, 1);
        assert_eq!(
            heavy.stats().nodes_computed,
            plain.stats().nodes_computed + 100
        );
    }

    #[test]
    fn padding_scales_to_the_largest_fig5_point() {
        let p = pipeline(3, 200, 2).unwrap();
        let derived = derive_tdg(&p.arch).unwrap();
        let rels = p.arch.app().relations().len();
        let extra = 50_000 - derived.tdg().node_count();
        let padded = crate::derive::DerivedTdg::new(
            pad_to(derived.tdg(), 50_000),
            derived.size_rules().to_vec(),
        );
        assert_eq!(padded.tdg().node_count(), 50_000);
        // Already-large graphs pass through as a plain clone.
        assert_eq!(pad_to(padded.tdg(), 100).node_count(), 50_000);
        let mut plain = Engine::new(derived, rels, false);
        let mut heavy = Engine::new(padded, rels, false);
        plain.set_input(0, 0, Time::ZERO, 4);
        heavy.set_input(0, 0, Time::ZERO, 4);
        assert_eq!(
            heavy.stats().nodes_computed,
            plain.stats().nodes_computed + extra as u64,
            "every padded node is computed exactly once per iteration"
        );
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_rejected() {
        let _ = pipeline(0, 1, 0);
    }

    #[test]
    fn padding_scales_to_the_200k_fig5_point() {
        // 200k nodes on one chain, as deep as a schedule gets. Exercises
        // the builder, levelization, and compiled lowering at a size where
        // any quadratic pass or 32-bit arc-count overflow would show
        // immediately.
        let p = pipeline(3, 200, 2).unwrap();
        let derived = derive_tdg(&p.arch).unwrap();
        let rels = p.arch.app().relations().len();
        let extra = 200_000 - derived.tdg().node_count();
        let padded = crate::derive::DerivedTdg::new(
            pad(derived.tdg(), extra),
            derived.size_rules().to_vec(),
        );
        assert_eq!(padded.tdg().node_count(), 200_000);
        let mut plain = Engine::new(derived, rels, false);
        let mut heavy = Engine::new(padded, rels, false);
        plain.set_input(0, 0, Time::ZERO, 4);
        heavy.set_input(0, 0, Time::ZERO, 4);
        assert_eq!(
            heavy.stats().nodes_computed,
            plain.stats().nodes_computed + extra as u64,
            "every padded node is computed exactly once per iteration"
        );
    }
}

//! Design-space exploration driver.
//!
//! The paper's motivation: "performance and cost of potential architectures
//! have to be assessed early in the design cycle", which demands evaluating
//! *many* candidate architectures — and therefore fast models. This crate
//! automates the loop: enumerate function-to-resource mappings, evaluate
//! each candidate with the fast equivalent model (plus the (max,+)
//! throughput bound), and keep the Pareto-optimal trade-offs between
//! performance and resource cost.
//!
//! # Example
//!
//! ```
//! use evolve_explore::Explorer;
//! use evolve_model::{
//!     Application, Behavior, Concurrency, Environment, LoadModel, Platform, RelationKind,
//!     Stimulus,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut app = Application::new();
//! let input = app.add_input("in", RelationKind::Rendezvous);
//! let mid = app.add_relation("mid", RelationKind::Rendezvous);
//! let out = app.add_output("out", RelationKind::Rendezvous);
//! app.add_function(
//!     "F1",
//!     Behavior::new().read(input).execute(LoadModel::Constant(100)).write(mid),
//! );
//! app.add_function(
//!     "F2",
//!     Behavior::new().read(mid).execute(LoadModel::Constant(100)).write(out),
//! );
//! let mut platform = Platform::new();
//! platform.add_resource("P1", Concurrency::Sequential, 1);
//! platform.add_resource("P2", Concurrency::Sequential, 1);
//!
//! let env = Environment::new().stimulus(input, Stimulus::saturating(50, |_| 0));
//! let explorer = Explorer::new(&app, &platform, &env, input, out);
//! let candidates = explorer.exhaustive(100)?;
//! assert_eq!(candidates.len(), 4); // 2 functions × 2 resources
//! let front = evolve_explore::pareto(&candidates);
//! assert!(!front.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cache;
pub mod sweep;

pub use evolve_core::{EvalBackend, FastForward, FastForwardStats};
pub use evolve_obs::{BatchCounters, EngineCounters, MetricsSnapshot, TelemetrySink, TraceCollector};
pub use sweep::{
    default_grid, drive_batch, drive_engine, parallel_map, parallel_map_with, run_sweep,
    trace_scenario, ModelKind, ModelSpec, ReferenceComparison, ScenarioOutcome, ScenarioResult,
    ScenarioSpec, SweepConfig, SweepReport, TraceSpec,
};

use evolve_core::{analysis, derive_tdg, equivalent_simulation, EquivalentError};
use evolve_des::Time;
use evolve_model::metrics::{latency_between, DurationStats};
use evolve_model::{
    Application, Architecture, Environment, FunctionId, Mapping, Platform, RelationId, ResourceId,
};

/// An evaluated mapping candidate.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Function-to-resource assignment, indexed by function.
    pub assignment: Vec<ResourceId>,
    /// Token latency from the probe input to the probe output.
    pub latency: DurationStats,
    /// End time of the evaluation run (makespan of the stimulus).
    pub makespan: Time,
    /// Number of distinct resources actually used.
    pub resources_used: usize,
    /// Total cost of the used resources (unit costs unless configured via
    /// [`Explorer::with_resource_costs`]).
    pub cost: u64,
    /// Analytical steady-state period bound (max cycle ratio) at the
    /// stimulus's maximum token size, if the graph is cyclic.
    pub predicted_period: Option<f64>,
}

impl Candidate {
    /// `true` when `self` dominates `other`: no worse in mean latency and
    /// resource cost, strictly better in at least one.
    pub fn dominates(&self, other: &Candidate) -> bool {
        let le = self.latency.mean <= other.latency.mean && self.cost <= other.cost;
        let lt = self.latency.mean < other.latency.mean || self.cost < other.cost;
        le && lt
    }
}

/// Errors of the exploration driver.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExploreError {
    /// A candidate failed to build or run.
    Candidate {
        /// The failing assignment.
        assignment: Vec<ResourceId>,
        /// The underlying error.
        source: EquivalentError,
    },
    /// The search space exceeds the given limit.
    SpaceTooLarge {
        /// Candidate count.
        candidates: u128,
        /// The configured cap.
        limit: usize,
    },
    /// The probe relations produced no latency samples.
    NoSamples,
}

impl core::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExploreError::Candidate { assignment, source } => {
                write!(f, "candidate {assignment:?} failed: {source}")
            }
            ExploreError::SpaceTooLarge { candidates, limit } => {
                write!(f, "{candidates} candidates exceed the limit {limit}")
            }
            ExploreError::NoSamples => write!(f, "no latency samples (empty stimulus?)"),
        }
    }
}

impl std::error::Error for ExploreError {}

/// Exploration context: the fixed application, platform and stimulus, and
/// the relation pair whose latency is the performance objective.
#[derive(Debug)]
pub struct Explorer<'a> {
    app: &'a Application,
    platform: &'a Platform,
    env: &'a Environment,
    latency_from: RelationId,
    latency_to: RelationId,
    /// Cost per resource (defaults to 1 each).
    resource_costs: Vec<u64>,
}

impl<'a> Explorer<'a> {
    /// Creates an explorer measuring token latency between two relations
    /// (typically the external input and output).
    pub fn new(
        app: &'a Application,
        platform: &'a Platform,
        env: &'a Environment,
        latency_from: RelationId,
        latency_to: RelationId,
    ) -> Self {
        let resource_costs = vec![1; platform.len()];
        Explorer {
            app,
            platform,
            env,
            latency_from,
            latency_to,
            resource_costs,
        }
    }

    /// Sets per-resource costs (area, price, power budget — any scalar the
    /// designer wants on the cost axis).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the platform's resource count.
    #[must_use]
    pub fn with_resource_costs(mut self, costs: Vec<u64>) -> Self {
        assert_eq!(costs.len(), self.platform.len(), "one cost per resource");
        self.resource_costs = costs;
        self
    }

    /// Evaluates one explicit assignment using the equivalent model.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Candidate`] when the architecture cannot be
    /// built or derived, [`ExploreError::NoSamples`] for empty stimuli.
    pub fn evaluate(&self, assignment: &[ResourceId]) -> Result<Candidate, ExploreError> {
        let mut mapping = Mapping::new();
        for (i, r) in assignment.iter().enumerate() {
            mapping.assign(FunctionId::from_index(i), *r);
        }
        let arch = Architecture::new(self.app.clone(), self.platform.clone(), mapping)
            .map_err(|e| ExploreError::Candidate {
                assignment: assignment.to_vec(),
                source: EquivalentError::Model(e),
            })?;
        let report = equivalent_simulation(&arch, self.env)
            .map_err(|e| ExploreError::Candidate {
                assignment: assignment.to_vec(),
                source: e,
            })?
            .run();
        let latency = latency_between(&report.run, self.latency_from, self.latency_to)
            .ok_or(ExploreError::NoSamples)?;
        let max_size = self
            .env
            .stimuli
            .values()
            .flat_map(|s| s.arrivals().iter().map(|a| a.size))
            .max()
            .unwrap_or(0);
        let predicted_period = derive_tdg(&arch)
            .ok()
            .and_then(|d| analysis::predicted_period(d.tdg(), max_size))
            .map(|p| p.as_f64());
        let mut used: Vec<ResourceId> = assignment.to_vec();
        used.sort_unstable();
        used.dedup();
        let cost = used.iter().map(|r| self.resource_costs[r.index()]).sum();
        Ok(Candidate {
            assignment: assignment.to_vec(),
            latency,
            makespan: report.run.end_time,
            resources_used: used.len(),
            cost,
            predicted_period,
        })
    }

    /// Evaluates every assignment of functions to resources, up to `limit`
    /// candidates.
    ///
    /// # Errors
    ///
    /// [`ExploreError::SpaceTooLarge`] when `resources ^ functions`
    /// exceeds `limit`; otherwise the first failing candidate's error.
    pub fn exhaustive(&self, limit: usize) -> Result<Vec<Candidate>, ExploreError> {
        let functions = self.app.functions().len();
        let resources = self.platform.len();
        let space = (resources as u128).pow(functions as u32);
        if space > limit as u128 {
            return Err(ExploreError::SpaceTooLarge {
                candidates: space,
                limit,
            });
        }
        let mut out = Vec::with_capacity(space as usize);
        let mut assignment = vec![ResourceId::from_index(0); functions];
        loop {
            out.push(self.evaluate(&assignment)?);
            // Odometer increment over resource indices.
            let mut pos = 0;
            loop {
                if pos == functions {
                    return Ok(out);
                }
                let next = assignment[pos].index() + 1;
                if next < resources {
                    assignment[pos] = ResourceId::from_index(next);
                    break;
                }
                assignment[pos] = ResourceId::from_index(0);
                pos += 1;
            }
        }
    }
}

impl Explorer<'_> {
    /// Deterministic steepest-descent local search with restarts, for
    /// mapping spaces too large to enumerate.
    ///
    /// The scalar objective is `mean latency + cost_weight × cost`
    /// (`cost_weight` in ticks per cost unit; 0 optimizes latency alone).
    /// The neighbourhood moves one function to another resource; each
    /// restart begins from a deterministic pseudo-random assignment
    /// derived from `seed`, so results are reproducible.
    ///
    /// # Errors
    ///
    /// Propagates the first failing candidate evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `restarts == 0` or the platform is empty.
    pub fn local_search(
        &self,
        cost_weight: f64,
        restarts: u32,
        seed: u64,
    ) -> Result<Candidate, ExploreError> {
        assert!(restarts > 0, "at least one restart required");
        assert!(!self.platform.is_empty(), "empty platform");
        let functions = self.app.functions().len();
        let resources = self.platform.len();
        let objective =
            |c: &Candidate| c.latency.mean + cost_weight * c.cost as f64;

        let mix = |x: u64| {
            let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };

        let mut best: Option<Candidate> = None;
        for r in 0..restarts {
            let mut assignment: Vec<ResourceId> = (0..functions)
                .map(|f| {
                    ResourceId::from_index(
                        (mix(seed ^ (u64::from(r) << 32) ^ f as u64) % resources as u64) as usize,
                    )
                })
                .collect();
            let mut current = self.evaluate(&assignment)?;
            loop {
                // Steepest single-move descent.
                let mut improved: Option<(usize, ResourceId, Candidate)> = None;
                for f in 0..functions {
                    let original = assignment[f];
                    for alt in 0..resources {
                        let alt = ResourceId::from_index(alt);
                        if alt == original {
                            continue;
                        }
                        assignment[f] = alt;
                        let candidate = self.evaluate(&assignment)?;
                        let better_than_current = objective(&candidate) < objective(&current);
                        let better_than_improved = improved
                            .as_ref()
                            .is_none_or(|(_, _, b)| objective(&candidate) < objective(b));
                        if better_than_current && better_than_improved {
                            improved = Some((f, alt, candidate));
                        }
                    }
                    assignment[f] = original;
                }
                match improved {
                    Some((f, alt, candidate)) => {
                        assignment[f] = alt;
                        current = candidate;
                    }
                    None => break,
                }
            }
            if best
                .as_ref()
                .is_none_or(|b| objective(&current) < objective(b))
            {
                best = Some(current);
            }
        }
        Ok(best.expect("restarts > 0"))
    }
}

/// The Pareto front of candidates under (mean latency ↓, cost ↓).
///
/// Candidates equal on both objectives are all kept.
pub fn pareto(candidates: &[Candidate]) -> Vec<Candidate> {
    candidates
        .iter()
        .filter(|c| !candidates.iter().any(|d| d.dominates(c)))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evolve_model::{Behavior, Concurrency, LoadModel, RelationKind, Stimulus};

    fn fixture() -> (Application, Platform, Environment, RelationId, RelationId) {
        let mut app = Application::new();
        let input = app.add_input("in", RelationKind::Rendezvous);
        let mid = app.add_relation("mid", RelationKind::Rendezvous);
        let out = app.add_output("out", RelationKind::Rendezvous);
        app.add_function(
            "F1",
            Behavior::new()
                .read(input)
                .execute(LoadModel::Constant(100))
                .write(mid),
        );
        app.add_function(
            "F2",
            Behavior::new()
                .read(mid)
                .execute(LoadModel::Constant(100))
                .write(out),
        );
        let mut platform = Platform::new();
        platform.add_resource("P1", Concurrency::Sequential, 1);
        platform.add_resource("P2", Concurrency::Sequential, 1);
        let env = Environment::new().stimulus(input, Stimulus::saturating(40, |_| 0));
        (app, platform, env, input, out)
    }

    #[test]
    fn exhaustive_covers_the_space() {
        let (app, platform, env, input, out) = fixture();
        let explorer = Explorer::new(&app, &platform, &env, input, out);
        let candidates = explorer.exhaustive(16).unwrap();
        assert_eq!(candidates.len(), 4);
        // All four assignments distinct.
        let distinct: std::collections::HashSet<Vec<usize>> = candidates
            .iter()
            .map(|c| c.assignment.iter().map(|r| r.index()).collect())
            .collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn pipelining_beats_serialization_on_throughput() {
        let (app, platform, env, input, out) = fixture();
        let explorer = Explorer::new(&app, &platform, &env, input, out);
        let same = explorer
            .evaluate(&[ResourceId::from_index(0), ResourceId::from_index(0)])
            .unwrap();
        let split = explorer
            .evaluate(&[ResourceId::from_index(0), ResourceId::from_index(1)])
            .unwrap();
        // Two resources pipeline: steady-state period halves.
        assert!(split.makespan < same.makespan);
        assert_eq!(same.resources_used, 1);
        assert_eq!(split.resources_used, 2);
        assert_eq!(split.predicted_period, Some(100.0));
        assert_eq!(same.predicted_period, Some(200.0));
    }

    #[test]
    fn pareto_front_is_nondominated_and_complete() {
        let (app, platform, env, input, out) = fixture();
        let explorer = Explorer::new(&app, &platform, &env, input, out);
        let candidates = explorer.exhaustive(16).unwrap();
        let front = pareto(&candidates);
        assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                assert!(!a.dominates(b), "front contains a dominated point");
            }
        }
        // Every excluded candidate is dominated by someone in the front.
        for c in &candidates {
            let in_front = front
                .iter()
                .any(|f| f.assignment == c.assignment);
            if !in_front {
                assert!(front.iter().any(|f| f.dominates(c)));
            }
        }
    }

    #[test]
    fn space_limit_enforced() {
        let (app, platform, env, input, out) = fixture();
        let explorer = Explorer::new(&app, &platform, &env, input, out);
        assert!(matches!(
            explorer.exhaustive(3),
            Err(ExploreError::SpaceTooLarge { candidates: 4, .. })
        ));
    }

    #[test]
    fn local_search_finds_the_exhaustive_optimum() {
        let (app, platform, env, input, out) = fixture();
        let explorer = Explorer::new(&app, &platform, &env, input, out);
        let all = explorer.exhaustive(16).unwrap();
        let best_mean = all
            .iter()
            .map(|c| c.latency.mean)
            .fold(f64::INFINITY, f64::min);
        let found = explorer.local_search(0.0, 4, 7).unwrap();
        assert_eq!(found.latency.mean, best_mean);
    }

    #[test]
    fn heavy_cost_weight_prefers_fewer_resources() {
        let (app, platform, env, input, out) = fixture();
        let explorer = Explorer::new(&app, &platform, &env, input, out);
        let found = explorer.local_search(1e9, 4, 7).unwrap();
        assert_eq!(found.resources_used, 1, "cost dominates the objective");
    }
}

//! # qt-scenario — fail-closed scenario files for reproducible runs
//!
//! Turns a TOML scenario document into a ready-to-run [`qt_core`]
//! simulation: geometry family → block structure, grid → energy/momentum
//! resolution, sweep → the bias × temperature points, and optional seeded
//! disorder → a deterministic defective device. The pipeline is strict
//! and fail-closed: unknown keys are rejected (a typo would silently run
//! a *different physical system*), every value is range-checked, cross-
//! field physics is validated, and every failure is a typed
//! [`ScenarioError`] carrying the offending key path. Nothing in this
//! crate panics on user input.
//!
//! The golden-result corpus under `corpus/` (run by `reproduce corpus`)
//! is built on this crate: scenario files are the inputs whose observables
//! are pinned, and the disorder machinery is how the corpus legitimately
//! exercises the `SingularBlock` quarantine path.

use qt_telemetry::counters::{self, Counter};

pub mod error;
pub mod schema;
pub mod toml;

pub use error::ScenarioError;
pub use schema::{
    ContactsSpec, DisorderSpec, Geometry, GeometrySpec, GridSpec, Scenario, SolverSpec, SweepSpec,
};

use qt_core::gf::Contacts;
use qt_core::hamiltonian::Disorder;
use qt_core::params::SimParams;
use qt_core::scf::{ScfConfig, Simulation};
use qt_core::sse::SseVariant;

/// A scenario compiled down to runnable simulation state.
pub struct BuiltScenario {
    /// The normalized scenario (vacancy level snapped, defaults spelled
    /// out) — `scenario.to_toml()` is its canonical form.
    pub scenario: Scenario,
    pub params: SimParams,
    /// Seeded disorder, when the scenario declares a `[disorder]` block.
    pub disorder: Option<Disorder>,
    /// The assembled simulation (disordered when `disorder` is set).
    pub sim: Simulation,
}

impl BuiltScenario {
    /// Solver config for one sweep point: the scenario's solver knobs
    /// with the contacts biased to `mu = ±bias/2` at `temperature`.
    pub fn config_at(&self, bias: f64, temperature: f64) -> ScfConfig {
        let s = &self.scenario;
        let mut cfg = ScfConfig {
            max_iterations: s.solver.max_iterations,
            tolerance: s.solver.tolerance,
            mixing: s.solver.mixing,
            adaptive_mixing: s.solver.adaptive_mixing,
            variant: variant_of(&s.solver.variant),
            ..ScfConfig::default()
        };
        cfg.gf.contacts = Contacts {
            mu_left: bias / 2.0,
            mu_right: -bias / 2.0,
            temperature,
            shift_left: s.contacts.shift_left,
            shift_right: s.contacts.shift_right,
        };
        cfg
    }

    /// All sweep points, temperature-major: `(bias, temperature)` for
    /// every temperature × bias combination, in document order.
    pub fn sweep_points(&self) -> Vec<(f64, f64)> {
        let s = &self.scenario.sweep;
        s.temperatures
            .iter()
            .flat_map(|&t| s.biases.iter().map(move |&b| (b, t)))
            .collect()
    }
}

fn variant_of(tag: &str) -> SseVariant {
    match tag {
        "reference" => SseVariant::Reference,
        "omen" => SseVariant::Omen,
        // parse() admits exactly the three tags, so this arm is "dace".
        _ => SseVariant::Dace,
    }
}

impl Scenario {
    /// Assemble the simulation this scenario describes. Assembly-level
    /// failures (a geometry the device builder rejects, a degenerate
    /// window) surface as [`ScenarioError::Invalid`] — never a panic.
    pub fn build(&self) -> Result<BuiltScenario, ScenarioError> {
        let g = &self.geometry;
        let params = SimParams {
            nkz: self.grid.nkz,
            nqz: self.grid.nqz,
            ne: self.grid.ne,
            nw: self.grid.nw,
            na: g.sections * g.atoms_per_section,
            nb: g.kind.coordination(),
            norb: g.orbitals,
            bnum: g.sections,
        };
        let disorder = self.disorder.as_ref().map(|d| Disorder {
            seed: d.seed,
            vacancy_fraction: d.vacancy_fraction,
            onsite_amplitude: d.onsite_amplitude,
            vacancy_level: d.vacancy_level,
        });
        let invalid = |reason: String| ScenarioError::Invalid {
            path: "scenario".into(),
            reason,
        };
        let sim = match &disorder {
            Some(d) => Simulation::disordered(params, self.grid.emin, self.grid.emax, *d)
                .map_err(invalid)?,
            None => Simulation::try_new(params, self.grid.emin, self.grid.emax).map_err(invalid)?,
        };
        Ok(BuiltScenario {
            scenario: self.clone(),
            params,
            disorder,
            sim,
        })
    }
}

/// The corpus entry point: parse, validate, and assemble in one step,
/// accounting the outcome (`corpus.scenarios_built` /
/// `corpus.scenarios_rejected`).
pub fn load(source: &str) -> Result<BuiltScenario, ScenarioError> {
    match Scenario::parse(source).and_then(|s| s.build()) {
        Ok(built) => {
            counters::add(Counter::CorpusScenariosBuilt, 1);
            Ok(built)
        }
        Err(e) => {
            counters::add(Counter::CorpusScenariosRejected, 1);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nanowire_doc() -> &'static str {
        r#"
name = "nanowire-smoke"

[geometry]
kind = "nanowire"
sections = 4
atoms_per_section = 4

[grid]
ne = 12
nw = 3
emin = -1.2
emax = 1.2

[sweep]
biases = [0.0, 0.4]
"#
    }

    #[test]
    fn all_three_geometries_build() {
        for (kind, nb) in [("nanowire", 4), ("gate-all-around", 6), ("sheet-2d", 3)] {
            let doc = nanowire_doc().replace("\"nanowire\"", &format!("{kind:?}"));
            let built = load(&doc).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(built.params.nb, nb, "{kind} coordination");
            assert_eq!(built.params.na, 16);
            assert_eq!(built.params.bnum, 4);
            assert_eq!(built.sim.p, built.params);
        }
    }

    #[test]
    fn defaults_are_spelled_out_and_canonical() {
        let s = Scenario::parse(nanowire_doc()).unwrap();
        assert_eq!(s.solver.max_iterations, 15);
        assert_eq!(s.contacts.temperature, 300.0);
        assert_eq!(s.sweep.temperatures, vec![300.0]);
        assert_eq!(s.grid.nkz, 2);
        assert_eq!(s.grid.nqz, 2);
        // Canonical form re-parses to the identical scenario, and its
        // canonical form is itself (idempotent normalization).
        let canon = s.to_toml();
        let s2 = Scenario::parse(&canon).unwrap();
        assert_eq!(s, s2);
        assert_eq!(canon, s2.to_toml());
    }

    #[test]
    fn unknown_keys_are_rejected_with_full_paths() {
        let doc = nanowire_doc().replace("nw = 3", "nw = 3\nnww = 3");
        assert_eq!(
            Scenario::parse(&doc).unwrap_err(),
            ScenarioError::UnknownKey {
                path: "grid.nww".into()
            }
        );
        let doc = format!("{}\n[extra]\nx = 1\n", nanowire_doc());
        assert_eq!(
            Scenario::parse(&doc).unwrap_err(),
            ScenarioError::UnknownKey {
                path: "extra".into()
            }
        );
    }

    #[test]
    fn wrong_types_and_ranges_carry_paths() {
        let doc = nanowire_doc().replace("ne = 12", "ne = \"twelve\"");
        assert_eq!(
            Scenario::parse(&doc).unwrap_err(),
            ScenarioError::TypeMismatch {
                path: "grid.ne".into(),
                expected: "integer",
                found: "string"
            }
        );
        let doc = nanowire_doc().replace("sections = 4", "sections = 1");
        match Scenario::parse(&doc).unwrap_err() {
            ScenarioError::OutOfRange { path, .. } => assert_eq!(path, "geometry.sections"),
            other => panic!("expected OutOfRange, got {other:?}"),
        }
        let doc = nanowire_doc().replace("[grid]", "[grid]\nnkz = 99");
        match Scenario::parse(&doc).unwrap_err() {
            ScenarioError::OutOfRange { path, .. } => assert_eq!(path, "grid.nkz"),
            other => panic!("expected OutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn missing_sections_are_reported() {
        let doc =
            "name = \"x\"\n[geometry]\nkind = \"nanowire\"\nsections = 4\natoms_per_section = 4\n";
        assert_eq!(
            Scenario::parse(doc).unwrap_err(),
            ScenarioError::MissingKey {
                path: "grid".into()
            }
        );
    }

    #[test]
    fn cross_field_checks_fire() {
        // Bias window: mu = ±1.0 outside [-1.2, 1.2] is fine, ±2.0 is not.
        let doc = nanowire_doc().replace("[0.0, 0.4]", "[0.0, 4.0]");
        match Scenario::parse(&doc).unwrap_err() {
            ScenarioError::Invalid { path, .. } => assert_eq!(path, "sweep.biases[1]"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        // Phonon ladder longer than the energy grid.
        let doc = nanowire_doc().replace("nw = 3", "nw = 12");
        match Scenario::parse(&doc).unwrap_err() {
            ScenarioError::Invalid { path, .. } => assert_eq!(path, "grid.nw"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        // Inverted window.
        let doc = nanowire_doc()
            .replace("emin = -1.2", "emin = 1.2")
            .replace("emax = 1.2", "emax = -1.2");
        assert!(matches!(
            Scenario::parse(&doc).unwrap_err(),
            ScenarioError::Invalid { .. } | ScenarioError::OutOfRange { .. }
        ));
    }

    #[test]
    fn vacancy_level_snaps_bitwise_onto_the_energy_grid() {
        let doc = format!(
            "{}\n[disorder]\nseed = 7\nvacancy_fraction = 0.1\nvacancy_level = 0.13\n",
            nanowire_doc()
        );
        let built = load(&doc).unwrap();
        let level = built.disorder.as_ref().unwrap().vacancy_level;
        // Must be bitwise equal to a grid energy as Grids computes it.
        assert!(
            built
                .sim
                .grids
                .energies
                .iter()
                .any(|&e| e.to_bits() == level.to_bits()),
            "snapped level {level} not bitwise on the grid"
        );
        // And the normalized scenario records the snapped value.
        assert_eq!(
            built.scenario.disorder.as_ref().unwrap().vacancy_level,
            level
        );
    }

    #[test]
    fn disordered_builds_are_reproducible_per_seed() {
        let doc = format!(
            "{}\n[disorder]\nseed = 42\nvacancy_fraction = 0.15\nonsite_amplitude = 0.05\n",
            nanowire_doc()
        );
        let a = load(&doc).unwrap();
        let b = load(&doc).unwrap();
        assert_eq!(a.sim.dev.neighbors, b.sim.dev.neighbors);
        let other = doc.replace("seed = 42", "seed = 43");
        let c = load(&other).unwrap();
        assert_ne!(
            a.sim.dev.neighbors, c.sim.dev.neighbors,
            "different seeds must produce different vacancy patterns"
        );
    }

    #[test]
    fn load_accounts_outcomes() {
        // `load` bumps on the calling thread; sibling tests load scenarios
        // too, so assert on this thread's shard, not the process total.
        let outcomes = || {
            [
                Counter::CorpusScenariosBuilt,
                Counter::CorpusScenariosRejected,
            ]
            .map(counters::local)
        };
        let [built, rejected] = outcomes();
        assert!(load(nanowire_doc()).is_ok());
        assert!(load("name = oops").is_err());
        assert_eq!(outcomes(), [built + 1, rejected + 1]);
    }

    #[test]
    fn config_at_biases_the_contacts() {
        let built = load(nanowire_doc()).unwrap();
        let cfg = built.config_at(0.4, 250.0);
        assert_eq!(cfg.gf.contacts.mu_left, 0.2);
        assert_eq!(cfg.gf.contacts.mu_right, -0.2);
        assert_eq!(cfg.gf.contacts.temperature, 250.0);
        assert_eq!(built.sweep_points(), vec![(0.0, 300.0), (0.4, 300.0)]);
    }
}

//! In-process serial replay of session scripts, and the output check that
//! compares it with what the server answered.
//!
//! A replay builds every request exactly as the load generator does (from
//! its own last solution), renders it, parses it back with the server's
//! `parse_request`, and applies it the way `SessionHost` does — so the only
//! difference from the served run is concurrency and the transport.

use std::collections::BTreeSet;
use std::time::Instant;

use mube_core::{Mube, ProblemSpec, Session};
use mube_opt::Solver;
use mube_qef::Weights;
use mube_schema::{AttrId, GaConstraint, SourceId, Universe};
use mube_serve::proto::{render_solution, Edit};
use mube_serve::{parse_request, solver_by_name, Command, Json};

use crate::loadgen::{Answer, LiveSession};
use crate::workload::{request, Fnv, Plan};

/// One decoded spec edit, names already resolved against the universe.
pub enum SpecEdit {
    /// Pin a source.
    Require(SourceId),
    /// Adopt a GA constraint.
    Adopt(GaConstraint),
    /// Replace the weights.
    Weights(Weights),
    /// Set θ.
    Theta(f64),
    /// Set `m`.
    MaxSources(usize),
}

/// Something that can play a session script: a plain `Session`, or the
/// traced pass that decomposes each solve.
pub trait Runner {
    /// Starts the session.
    fn create(
        &mut self,
        solver: Box<dyn Solver>,
        spec: ProblemSpec,
        seed: u64,
    ) -> Result<(), String>;
    /// Applies one edit to the session's spec.
    fn edit(&mut self, edit: SpecEdit) -> Result<(), String>;
    /// Runs one iteration; `request` numbers the solve within the replay.
    /// Returns the solution rendered as the server renders it.
    fn solve(&mut self, request: usize) -> Result<Json, String>;
}

/// Plays `plan`'s script for the session seeded `seed` until `solves`
/// solves have run (or the script ends), returning their answers.
pub fn drive(
    plan: &Plan,
    universe: &Universe,
    names: &BTreeSet<String>,
    seed: u64,
    solves: usize,
    runner: &mut dyn Runner,
) -> Result<Vec<Answer>, String> {
    let mut last: Option<Json> = None;
    let mut answers = Vec::new();
    for (i, step) in plan.script.iter().enumerate() {
        if answers.len() == solves {
            break;
        }
        let (json, _) = request(plan, step, i as u64, seed, 0, last.as_ref(), names)?;
        match parse_request(&json.render())?.command {
            Command::CreateSession(spec) => {
                let solver = solver_by_name(&spec.solver)?;
                if spec.weights.is_empty() {
                    return Err("scripts always send explicit weights".to_owned());
                }
                let weights =
                    Weights::normalized(spec.weights.iter().map(|(n, w)| (n.clone(), *w)))?;
                let problem = ProblemSpec::new(spec.max_sources)
                    .with_weights(weights)
                    .with_theta(spec.theta);
                runner.create(solver, problem, spec.seed)?;
            }
            Command::EditConstraints { edits, .. } => {
                for edit in &edits {
                    runner.edit(decode(universe, edit)?)?;
                }
            }
            Command::Solve { .. } => {
                let solution = runner.solve(answers.len())?;
                answers.push(Answer::of(&solution).ok_or("rendered solution lacks an answer")?);
                last = Some(solution);
            }
            // Inspect and diff read the session without changing it.
            _ => {}
        }
    }
    Ok(answers)
}

/// Resolves an edit's names the way `SessionHost` does: a source by its
/// name, an attribute by the first position carrying its name.
fn decode(universe: &Universe, edit: &Edit) -> Result<SpecEdit, String> {
    let source = |name: &str| {
        universe
            .sources()
            .iter()
            .find(|s| s.name() == name)
            .map(|s| s.id())
            .ok_or_else(|| format!("no source named {name:?}"))
    };
    Ok(match edit {
        Edit::RequireSource(name) => SpecEdit::Require(source(name)?),
        Edit::AdoptGa(attrs) => {
            let mut ids = Vec::with_capacity(attrs.len());
            for (source_name, attr_name) in attrs {
                let id = source(source_name)?;
                let index = universe
                    .expect_source(id)
                    .attributes()
                    .iter()
                    .position(|a| a == attr_name)
                    .ok_or_else(|| format!("{source_name:?} has no attribute {attr_name:?}"))?;
                ids.push(AttrId::new(id, index as u32));
            }
            SpecEdit::Adopt(GaConstraint::new(ids).map_err(|e| e.to_string())?)
        }
        Edit::SetWeights(pairs) => SpecEdit::Weights(Weights::normalized(
            pairs.iter().map(|(n, w)| (n.clone(), *w)),
        )?),
        Edit::SetTheta(theta) => SpecEdit::Theta(*theta),
        Edit::SetMaxSources(m) => SpecEdit::MaxSources(*m),
    })
}

/// Plays a script through a plain [`Session`], timing each iterate.
pub struct SessionRunner<'a> {
    mube: &'a Mube,
    session: Option<Session>,
    /// Start and end of each `Session::iterate`.
    pub iterates: Vec<(Instant, Instant)>,
}

impl<'a> SessionRunner<'a> {
    /// A runner over `mube`.
    pub fn new(mube: &'a Mube) -> Self {
        Self {
            mube,
            session: None,
            iterates: Vec::new(),
        }
    }

    fn session(&mut self) -> Result<&mut Session, String> {
        self.session
            .as_mut()
            .ok_or_else(|| "no session yet".to_owned())
    }
}

impl Runner for SessionRunner<'_> {
    fn create(
        &mut self,
        solver: Box<dyn Solver>,
        spec: ProblemSpec,
        seed: u64,
    ) -> Result<(), String> {
        self.session = Some(
            Session::new(self.mube, spec)
                .with_solver(solver)
                .with_seed(seed),
        );
        Ok(())
    }

    fn edit(&mut self, edit: SpecEdit) -> Result<(), String> {
        let session = self.session()?;
        match edit {
            SpecEdit::Require(id) => {
                session.require_source(id);
            }
            SpecEdit::Adopt(ga) => {
                session.adopt_ga(ga);
            }
            SpecEdit::Weights(w) => {
                session.set_weights(w);
            }
            SpecEdit::Theta(theta) => {
                session.set_theta(theta).map_err(|e| e.to_string())?;
            }
            SpecEdit::MaxSources(m) => {
                session.set_max_sources(m).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    fn solve(&mut self, _request: usize) -> Result<Json, String> {
        let mube = self.mube;
        let session = self.session()?;
        let start = Instant::now();
        let solution = session.iterate().map_err(|e| e.to_string())?;
        let end = Instant::now();
        let rendered = render_solution(mube.universe(), solution);
        self.iterates.push((start, end));
        Ok(rendered)
    }
}

/// What the replay check found.
pub struct ReplayReport {
    /// Sessions compared.
    pub sessions: usize,
    /// Solves compared.
    pub solves: usize,
    /// Digest of the first two measured sessions' replayed answers.
    pub answers_digest: u64,
    /// Mismatches and replay failures.
    pub problems: Vec<String>,
}

/// Replays, serially and in process, the full scripts of the first two
/// measured sessions and the first solve of every other one, on two
/// threads, and compares every answer with the served one bit for bit.
pub fn check(
    plan: &Plan,
    mube: &Mube,
    names: &BTreeSet<String>,
    sessions: &[LiveSession],
) -> ReplayReport {
    let jobs: Vec<(&LiveSession, usize)> = sessions
        .iter()
        .filter(|s| s.k > 0 && !s.answers.is_empty())
        .enumerate()
        .map(|(i, s)| (s, if i < 2 { s.answers.len() } else { 1 }))
        .collect();
    let mut results: Vec<Option<Result<Vec<Answer>, String>>> = Vec::new();
    results.resize_with(jobs.len(), || None);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|t| {
                let jobs = &jobs;
                scope.spawn(move || {
                    jobs.iter()
                        .enumerate()
                        .skip(t)
                        .step_by(2)
                        .map(|(i, &(s, solves))| {
                            let mut runner = SessionRunner::new(mube);
                            (
                                i,
                                drive(plan, mube.universe(), names, s.seed, solves, &mut runner),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (i, result) in worker.join().expect("replay thread panicked") {
                results[i] = Some(result);
            }
        }
    });

    let mut report = ReplayReport {
        sessions: jobs.len(),
        solves: jobs.iter().map(|j| j.1).sum(),
        answers_digest: 0,
        problems: Vec::new(),
    };
    let mut digest = Fnv::default();
    for (i, ((session, solves), result)) in jobs.iter().zip(results).enumerate() {
        match result {
            Some(Ok(replayed)) => {
                if i < 2 {
                    for answer in &replayed {
                        answer.selected.iter().for_each(|n| digest.str(n));
                        digest.str(&answer.bits);
                    }
                }
                if replayed[..] != session.answers[..*solves] {
                    report.problems.push(format!(
                        "session {} diverged from its serial replay: served {:?}, replayed {:?}",
                        session.k,
                        &session.answers[..*solves],
                        replayed
                    ));
                }
            }
            Some(Err(e)) => report
                .problems
                .push(format!("replay of session {} failed: {e}", session.k)),
            None => report
                .problems
                .push(format!("replay of session {} did not run", session.k)),
        }
    }
    report.answers_digest = digest.0;
    report
}

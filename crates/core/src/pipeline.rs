//! The staged prediction pipeline (§3, Figure 1) and its hooks.
//!
//! | [`Stage`] | flat front-end | session / ECO front-end |
//! |---|---|---|
//! | `Parse` | parse + elaborate | parse, merge the patch, incremental elaboration |
//! | `Sample` | GraphIR + path sampling | GraphIR + per-terminal (re-)sampling |
//! | `Infer` | tokenize + [`Hooks::prime`] | same |
//! | `Aggregate` | serial reduction + MLP refinement | same |
//!
//! After each stage the pipeline calls [`Hooks::after`], whose `Err` ends
//! the run (a stopped session or patch registers nothing);
//! [`Hooks::prime`] runs the Circuitformer. Hooks move work, never values.

use std::collections::HashMap;
use std::convert::Infallible;
use std::time::{Duration, Instant};

use sns_graphir::GraphIr;
use sns_netlist::{parse_source, Netlist};
use sns_sampler::PathSampler;

use crate::predictor::{path_items, DesignPrediction, SnsModel};
use crate::session::{SessionError, SessionOutcome, SessionStore};

/// The named stages of a prediction, in pipeline order. They match the
/// `stages_us` keys of the serving daemon's `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Verilog front-end: parse and elaborate.
    Parse,
    /// GraphIR construction and path sampling.
    Sample,
    /// Tokenization and Circuitformer inference.
    Infer,
    /// Path reduction and Aggregation-MLP refinement.
    Aggregate,
}

/// Observes a prediction stage by stage and runs its inference.
pub trait Hooks {
    /// What [`after`](Self::after) returns to end a prediction early.
    type Stop;

    /// Called after `stage` finished in `took`. `Err` ends the
    /// prediction with [`PipelineError::Stopped`]; the default never does.
    fn after(&self, _stage: Stage, _took: Duration) -> Result<(), Self::Stop> {
        Ok(())
    }

    /// Makes `model`'s path cache hold every sequence in `seqs`; any still
    /// missing on return is recomputed by the reduction, with the same bits.
    fn prime(&self, model: &SnsModel, seqs: &[Vec<usize>]);
}

/// The hooks of a direct call: never stops, and primes the path cache
/// with [`SnsModel::prime_path_cache`]. Predictions are identical at any
/// `threads` and `batch`; only throughput moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inline {
    /// Inference pool workers.
    pub threads: usize,
    /// Sequences per packed Circuitformer forward.
    pub batch: usize,
}

impl Default for Inline {
    /// The process's resolved `SNS_THREADS` / `SNS_BATCH`.
    fn default() -> Self {
        Inline { threads: sns_rt::pool::default_threads(), batch: sns_rt::pool::default_batch() }
    }
}

impl Hooks for Inline {
    type Stop = Infallible;

    fn prime(&self, model: &SnsModel, seqs: &[Vec<usize>]) {
        model.prime_path_cache(seqs, self.threads, self.batch);
    }
}

/// What to predict.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// A one-shot prediction of `top` in `verilog`, with optional
    /// per-register activity coefficients (§3.4.4).
    Flat { verilog: &'a str, top: &'a str, activity: Option<&'a HashMap<String, f32>> },
    /// A prediction through the incremental front-end that registers the
    /// design in `store` as an ECO base.
    Session { store: &'a SessionStore, verilog: &'a str, top: &'a str },
    /// An ECO: `patch`'s modules replace (or join) those of the `base`
    /// session in `store`; the patched design is registered too.
    Patch { store: &'a SessionStore, base: &'a str, patch: &'a str },
}

/// A finished prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// The answer to [`Input::Flat`].
    Flat(DesignPrediction),
    /// The answer to [`Input::Session`] or [`Input::Patch`].
    Session(SessionOutcome),
}

/// Why a hooked prediction produced no answer.
#[derive(Debug)]
pub enum PipelineError<S> {
    /// The input was rejected: it does not parse or elaborate, or a
    /// patch names an unknown base.
    Rejected(SessionError),
    /// A hook stopped the prediction.
    Stopped(S),
}

fn rejected<S>(e: impl Into<SessionError>) -> PipelineError<S> {
    PipelineError::Rejected(e.into())
}

impl SnsModel {
    /// Runs `input` through the staged pipeline under `hooks`. `start`
    /// is the instant the reported `runtime` counts from.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Rejected`] for front-end failures and unknown
    /// bases; [`PipelineError::Stopped`] when a hook ended the run.
    pub fn predict_with<H: Hooks>(
        &self,
        input: Input<'_>,
        hooks: &H,
        start: Instant,
    ) -> Result<Output, PipelineError<H::Stop>> {
        let t = Instant::now();
        let (store, front) = match input {
            Input::Flat { verilog, top, activity } => {
                let netlist = sns_netlist::parse_and_elaborate(verilog, top).map_err(rejected)?;
                hooks.after(Stage::Parse, t.elapsed()).map_err(PipelineError::Stopped)?;
                return self
                    .run_flat(&netlist, activity, hooks, start)
                    .map(Output::Flat)
                    .map_err(PipelineError::Stopped);
            }
            Input::Session { store, verilog, top } => {
                let design = parse_source(verilog).map_err(rejected)?;
                (store, store.elaborate(design, top, None).map_err(rejected)?)
            }
            Input::Patch { store, base, patch } => {
                (store, store.elaborate_patch(base, patch).map_err(rejected)?)
            }
        };
        self.run_session(store, front, hooks, t, start)
            .map(Output::Session)
            .map_err(PipelineError::Stopped)
    }

    /// The flat pipeline from the `Sample` stage on.
    pub(crate) fn run_flat<H: Hooks>(
        &self,
        netlist: &Netlist,
        activity: Option<&HashMap<String, f32>>,
        hooks: &H,
        start: Instant,
    ) -> Result<DesignPrediction, H::Stop> {
        let t = Instant::now();
        let graph = GraphIr::from_netlist(netlist);
        let paths = PathSampler::new(self.sample.clone()).sample(&graph);
        hooks.after(Stage::Sample, t.elapsed())?;
        let t = Instant::now();
        let seqs = self.tokenize_paths(&graph, &paths);
        self.infer_and_aggregate(hooks, t, &graph, &seqs, path_items(&graph, &paths, activity), start)
    }

    /// The tail every front-end shares: `seqs` (tokenized since `t`) and
    /// `items` are the paths' token sequences and reduction items.
    pub(crate) fn infer_and_aggregate<H: Hooks>(
        &self,
        hooks: &H,
        t: Instant,
        graph: &GraphIr,
        seqs: &[Vec<usize>],
        items: impl Iterator<Item = (f32, impl FnOnce() -> Vec<String>)>,
        start: Instant,
    ) -> Result<DesignPrediction, H::Stop> {
        hooks.prime(self, seqs);
        hooks.after(Stage::Infer, t.elapsed())?;
        let t = Instant::now();
        let (aggregates, critical) = self.reduce(seqs, items);
        let prediction = self.refine(graph, seqs.len(), aggregates, critical, start);
        hooks.after(Stage::Aggregate, t.elapsed())?;
        Ok(prediction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::{assert_same_prediction, src, tiny_model};

    /// Stops right after one stage; primes like a small inline call.
    struct StopAfter(Stage);

    impl Hooks for StopAfter {
        type Stop = Stage;

        fn after(&self, stage: Stage, _: Duration) -> Result<(), Stage> {
            if stage == self.0 {
                Err(stage)
            } else {
                Ok(())
            }
        }

        fn prime(&self, model: &SnsModel, seqs: &[Vec<usize>]) {
            Inline { threads: 2, batch: 3 }.prime(model, seqs);
        }
    }

    fn prediction(out: &Output) -> &DesignPrediction {
        match out {
            Output::Flat(p) => p,
            Output::Session(o) => &o.prediction,
        }
    }

    #[test]
    fn a_stop_after_any_stage_ends_the_run_and_registers_nothing() {
        let model = tiny_model().fork_replica();
        let store = SessionStore::default();
        let base = model.predict_session(&store, &src("a + 8'd1"), "top").unwrap();
        let patch = "module leaf (input [7:0] a, output [7:0] y); assign y = a ^ 8'h3C; endmodule";
        let verilog = src("a - 8'd2");
        let inputs = [
            Input::Flat { verilog: &verilog, top: "top", activity: None },
            Input::Session { store: &store, verilog: &verilog, top: "top" },
            Input::Patch { store: &store, base: &base.token, patch },
        ];
        // The answers of a model and a store that never saw a stop.
        let reference: Vec<Output> = {
            let (m, s) = (tiny_model().fork_replica(), SessionStore::default());
            m.predict_session(&s, &src("a + 8'd1"), "top").unwrap();
            [
                Input::Flat { verilog: &verilog, top: "top", activity: None },
                Input::Session { store: &s, verilog: &verilog, top: "top" },
                Input::Patch { store: &s, base: &base.token, patch },
            ]
            .into_iter()
            .map(|input| m.predict_with(input, &Inline::default(), Instant::now()).unwrap())
            .collect()
        };
        for stage in [Stage::Parse, Stage::Sample, Stage::Infer, Stage::Aggregate] {
            for (input, want) in inputs.iter().zip(&reference) {
                model.clear_cache();
                match model.predict_with(*input, &StopAfter(stage), Instant::now()) {
                    Err(PipelineError::Stopped(s)) => assert_eq!(s, stage),
                    other => panic!("{input:?} not stopped after {stage:?}: {other:?}"),
                }
                assert_eq!(store.session_count(), 1, "{input:?} stopped after {stage:?}");
                let got = model.predict_with(*input, &Inline::default(), Instant::now()).unwrap();
                assert_same_prediction(prediction(&got), prediction(want));
                if let (Output::Session(got), Output::Session(want)) = (&got, want) {
                    assert_eq!(got.token, want.token);
                    assert_eq!(got.reelaborated, want.reelaborated);
                }
                store.clear();
                model.predict_session(&store, &src("a + 8'd1"), "top").unwrap();
            }
        }
    }
}

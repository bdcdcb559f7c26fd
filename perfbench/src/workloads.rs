//! The three workloads' library inputs, and why each exists.
//!
//! * `corpus-cold` — the 45 pinned corpus specs, full flow, no cache.
//!   The CSC sweep is ~90% of it (the `counter` family alone ~65%, with
//!   zero resolutions), and its verdicts include `not_implementable`
//!   and `csc_unresolved`, so failure paths are timed too.
//! * `logic-wide` — CSC-clean specs beyond the pinned grid, where
//!   `synthesize` (regions, next-state functions, primes, minimisation,
//!   mapping) is ~99% of the time. A CSC change predicts no change here.
//! * `analysis-large` — `check` only, on the largest state spaces, with
//!   the explicit and the resident-BDD (`symbolic-set`) backends, so a
//!   gain for one backend that costs the other shows.
//!
//! Every workload ends with the same open-loop daemon phase (see
//! [`crate::service`]): protocol, admission, queue, cache and workers.

use asyncsynth::{Backend, SynthesisOptions};
use corpus::generators;
use stg::Stg;

/// What the library does with a spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `check → resolve_csc → synthesize → verify`.
    Flow,
    /// `check` only.
    Check,
}

/// One offline input: a spec, the options it runs under and the
/// directory (family) its expected record lives in.
#[derive(Debug, Clone)]
pub struct Item {
    pub family: String,
    pub spec: Stg,
    pub options: SynthesisOptions,
    pub op: Op,
}

/// Offline workloads run single-threaded: the sweep's thread count
/// never changes output, and multi-core speed-ups are out of scope.
pub fn offline_options(backend: Backend) -> SynthesisOptions {
    let mut options = SynthesisOptions {
        backend,
        ..SynthesisOptions::default()
    };
    options.sweep.threads = 1;
    options
}

fn item(family: &str, spec: Stg, backend: Backend, op: Op) -> Item {
    Item {
        family: family.to_owned(),
        spec,
        options: offline_options(backend),
        op,
    }
}

/// `corpus-cold`: every pinned corpus spec; expected records are the
/// repository's ledger.
pub fn corpus_cold() -> Vec<Item> {
    corpus::all_specs()
        .into_iter()
        .map(|(family, spec)| item(family, spec, Backend::Explicit, Op::Flow))
        .collect()
}

/// `logic-wide`: handshake chains (alternating roles at k = 16, 20, 24;
/// all-output at k = 16, 20) and input-choice dispatchers (n = 8, 10,
/// 12). All are CSC-clean.
pub fn logic_wide() -> Vec<Item> {
    let mut specs = Vec::new();
    for k in [16, 20, 24] {
        specs.push(generators::handshake_chain(k, &[true, false]));
    }
    for k in [16, 20] {
        specs.push(generators::handshake_chain(k, &[false]));
    }
    for n in [8, 10, 12] {
        specs.push(generators::dispatcher(n, true));
    }
    specs
        .into_iter()
        .map(|spec| item("logic-wide", spec, Backend::Explicit, Op::Flow))
        .collect()
}

/// Expected-record family of an `analysis-large` backend.
fn analysis_family(backend: Backend) -> String {
    format!("analysis-{}", backend.name())
}

/// `analysis-large`: explicit `check` on token-ring-9-9,
/// token-ring-10-10 (184,756 states), par-10-free and micropipeline-5;
/// `symbolic-set` on token-ring-8-8 and par-8-free, which also run
/// explicitly so the two backends' reports can be compared.
pub fn analysis_large() -> Vec<Item> {
    let explicit = [
        stg::examples::token_ring(9, 9),
        stg::examples::token_ring(10, 10),
        generators::paralleliser(10, false),
        stg::examples::micropipeline(5),
        stg::examples::token_ring(8, 8),
        generators::paralleliser(8, false),
    ];
    let symbolic = [
        stg::examples::token_ring(8, 8),
        generators::paralleliser(8, false),
    ];
    let mut items: Vec<Item> = explicit
        .into_iter()
        .map(|s| {
            item(
                &analysis_family(Backend::Explicit),
                s,
                Backend::Explicit,
                Op::Check,
            )
        })
        .collect();
    items.extend(symbolic.into_iter().map(|s| {
        item(
            &analysis_family(Backend::SymbolicSet),
            s,
            Backend::SymbolicSet,
            Op::Check,
        )
    }));
    items
}

//! Binary-encoded state graphs (§1.4: *"A TS with states labeled with
//! binary codes of signals is called a state graph of an STG. State graphs
//! are of primary importance since they form the basis of logic
//! synthesis."*).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::OnceLock;

use petri::reach::{ReachError, ReachabilityGraph};
use petri::{Marking, PetriNet, PlaceId, TransitionId, TransitionSystem};

use crate::model::{SignalEdge, SignalId, Stg};
use crate::state_space::StateSpace;

/// Errors raised while building a state graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StgError {
    /// The underlying net is not safe / exceeded the state limit.
    Reach(ReachError),
    /// A signal edge fired from the wrong value (e.g. `a+` while `a = 1`):
    /// the STG is not *consistent* (§2.1).
    InconsistentEdge {
        /// The offending transition's label text.
        transition: String,
        /// Index of the state graph state where it fired.
        state: usize,
    },
    /// Two paths assign different binary codes to the same marking — also a
    /// consistency violation.
    InconsistentCode {
        /// Index of the state that was re-reached with a different code.
        state: usize,
    },
    /// A signal never settles: different first-edge polarities on
    /// different paths made initial-value inference contradictory.
    AmbiguousInitialValue {
        /// The signal name.
        signal: String,
    },
}

impl fmt::Display for StgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StgError::Reach(e) => write!(f, "reachability failure: {e}"),
            StgError::InconsistentEdge { transition, state } => {
                write!(f, "inconsistent edge {transition} fired in state s{state}")
            }
            StgError::InconsistentCode { state } => {
                write!(f, "state s{state} reached with two different binary codes")
            }
            StgError::AmbiguousInitialValue { signal } => {
                write!(f, "cannot infer a unique initial value for signal {signal}")
            }
        }
    }
}

impl std::error::Error for StgError {}

impl From<ReachError> for StgError {
    fn from(e: ReachError) -> Self {
        StgError::Reach(e)
    }
}

/// One state of a [`StateGraph`]: a marking plus the binary code of all
/// signals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SgState {
    /// The marking of the underlying net.
    pub marking: Marking,
    /// Signal values, indexed by [`SignalId`].
    pub code: Vec<bool>,
}

/// The state graph of an STG: reachable markings with binary signal codes,
/// as produced by the token game of Fig. 4.
#[derive(Debug, Clone)]
pub struct StateGraph {
    states: Vec<SgState>,
    ts: TransitionSystem<TransitionId>,
    initial_values: Vec<bool>,
    num_signals: usize,
    /// Lazily built code → states index (see [`StateGraph::code_index`]).
    code_index: OnceLock<HashMap<Vec<bool>, Vec<usize>>>,
}

impl StateGraph {
    /// Builds the state graph, inferring initial signal values when the STG
    /// does not fix them, and checking consistency along the way.
    ///
    /// # Errors
    ///
    /// Returns [`StgError`] if the net is unsafe, a rising edge fires at
    /// value 1 (or falling at 0), or a marking is re-reached with a
    /// different code.
    pub fn build(stg: &Stg) -> Result<Self, StgError> {
        Self::build_bounded(stg, crate::state_space::DEFAULT_STATE_BOUND)
    }

    /// Like [`StateGraph::build`] with an explicit state limit.
    ///
    /// # Errors
    ///
    /// See [`StateGraph::build`].
    pub fn build_bounded(stg: &Stg, max_states: usize) -> Result<Self, StgError> {
        let rg = ReachabilityGraph::build_bounded(stg.net(), 1, max_states)?;
        let (initial_values, codes) = signal_codes(stg, rg.ts())?;
        let n = stg.num_signals();
        let states: Vec<SgState> = rg
            .markings()
            .iter()
            .cloned()
            .zip(codes)
            .map(|(marking, code)| SgState { marking, code })
            .collect();
        Ok(StateGraph {
            states,
            ts: rg.ts().clone(),
            initial_values,
            num_signals: n,
            code_index: OnceLock::new(),
        })
    }

    /// The state graph of a [`Refinement`] of a safe STG, derived from
    /// the STG's already-built space `base` (over `net`) without playing
    /// the token game again.
    ///
    /// A refinement only adds a tiny automaton to the base net — one
    /// causal place, or two link places plus the two edges feeding them —
    /// so the refined graph is the reachable product of `base` with a 2-
    /// or 4-valued tag. It is explored breadth-first over dense
    /// `(base state, tag)` indices, with no net firing and no marking
    /// hashing. `labels` is the refined STG's label source: it must carry
    /// the refined transition list (for an insertion, the two inserted
    /// edges at ids `T` and `T + 1`) and, as for [`StateGraph::build`],
    /// its explicit initial values are kept and missing ones inferred.
    ///
    /// The result is identical to [`StateGraph::build_bounded`] on the
    /// rebuilt refined STG: states and arcs are numbered in token-game
    /// order, markings use the rebuilt net's place layout (the base
    /// places, then the added ones), and errors — a link place reaching 2
    /// tokens, the state limit, inconsistent codes — fire at the same
    /// point. This holds because the base net is safe and each added
    /// place's tokens are consumed by exactly one transition, so every
    /// refined marking is one (base marking, tag) pair.
    ///
    /// `base` must materialise its states and arcs (the explicit
    /// backend) and be the complete space of the STG over `net`.
    ///
    /// # Errors
    ///
    /// See [`StateGraph::build`].
    pub fn derive_bounded<S: StateSpace + ?Sized>(
        base: &S,
        net: &PetriNet,
        labels: &Stg,
        refinement: Refinement,
        max_states: usize,
    ) -> Result<Self, StgError> {
        let product = Product::new(net, refinement);
        debug_assert_eq!(
            labels.net().num_transitions(),
            net.num_transitions() + product.split.len(),
            "the label source carries the refined transition list"
        );
        let mut explorer = Explorer {
            index: vec![u32::MAX; base.num_states() << product.consumers.len()],
            states: vec![(0, [0, 0])],
            arcs: Vec::new(),
            max_states,
        };
        explorer.index[0] = 0;
        // Discovery order is BFS order: the state list is the queue.
        let mut next = 0;
        while next < explorer.states.len() {
            let from = next;
            next += 1;
            let (b, links) = explorer.states[from];
            // Successors in transition-id order: the base transitions
            // (base arcs are already in id order), then inserted edges.
            for (&t, to_b) in base.ts().successors(b) {
                if let Some(links) = product.fire_base(t, links) {
                    explorer.visit(&product, base, from, t, to_b, links)?;
                }
            }
            for k in 0..product.split.len() {
                if let Some(links) = product.fire_split(k, links, base.marking(b)) {
                    let t = TransitionId::from_index(net.num_transitions() + k);
                    explorer.visit(&product, base, from, t, b, links)?;
                }
            }
        }
        let mut ts = TransitionSystem::new(explorer.states.len(), 0);
        for (from, t, to) in explorer.arcs {
            ts.add_arc(from, t, to);
        }
        let (initial_values, codes) = signal_codes(labels, &ts)?;
        let states: Vec<SgState> = explorer
            .states
            .iter()
            .zip(codes)
            .map(|(&(b, links), code)| SgState {
                marking: product.marking(base.marking(b), links),
                code,
            })
            .collect();
        Ok(StateGraph {
            states,
            ts,
            initial_values,
            num_signals: labels.num_signals(),
            code_index: OnceLock::new(),
        })
    }

    /// Number of states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of signals in the code.
    #[must_use]
    pub fn num_signals(&self) -> usize {
        self.num_signals
    }

    /// A state by index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn state(&self, i: usize) -> &SgState {
        &self.states[i]
    }

    /// All states.
    #[must_use]
    pub fn states(&self) -> &[SgState] {
        &self.states
    }

    /// The transition system over net-transition labels (state 0 initial).
    #[must_use]
    pub fn ts(&self) -> &TransitionSystem<TransitionId> {
        &self.ts
    }

    /// The (possibly inferred) initial signal values.
    #[must_use]
    pub fn initial_values(&self) -> &[bool] {
        &self.initial_values
    }

    // The query helpers below delegate to the `StateSpace` defaults so
    // the logic exists exactly once and every backend renders/answers
    // identically; the inherent copies survive only so callers need not
    // import the trait.

    /// Value of signal `sig` in state `i`.
    #[must_use]
    pub fn value(&self, i: usize, sig: SignalId) -> bool {
        StateSpace::value(self, i, sig)
    }

    /// The signal edges enabled (excited) in state `i`, as
    /// `(transition, signal, edge)` triples; dummies are skipped.
    #[must_use]
    pub fn excitations(&self, stg: &Stg, i: usize) -> Vec<(TransitionId, SignalId, SignalEdge)> {
        StateSpace::excitations(self, stg, i)
    }

    /// `true` if signal `sig` is excited (has an enabled edge) in state `i`.
    #[must_use]
    pub fn is_excited(&self, stg: &Stg, i: usize, sig: SignalId) -> bool {
        StateSpace::is_excited(self, stg, i, sig)
    }

    /// The paper's state rendering: binary code with `*` after each excited
    /// signal, e.g. `10.11*.0` — here without grouping dots: `1011*0`.
    #[must_use]
    pub fn code_string(&self, stg: &Stg, i: usize) -> String {
        StateSpace::code_string(self, stg, i)
    }

    /// The plain binary code of state `i` as a `0`/`1` string.
    #[must_use]
    pub fn plain_code_string(&self, i: usize) -> String {
        StateSpace::plain_code_string(self, i)
    }

    /// Successor state along a given transition, if enabled.
    #[must_use]
    pub fn successor(&self, state: usize, t: TransitionId) -> Option<usize> {
        StateSpace::successor(self, state, t)
    }

    /// States whose code equals `code`.
    #[must_use]
    pub fn states_with_code(&self, code: &[bool]) -> Vec<usize> {
        StateSpace::states_with_code(self, code)
    }

    /// The code → states index, built on first use. One hash map build
    /// replaces the linear scans that used to serve every
    /// `states_with_code` call (hot in CSC conflict detection).
    pub(crate) fn code_index(&self) -> &HashMap<Vec<bool>, Vec<usize>> {
        self.code_index
            .get_or_init(|| build_code_index(&self.states))
    }
}

/// A structural refinement of an STG whose state graph
/// [`StateGraph::derive_bounded`] computes as a product of the base
/// graph — the two moves of CSC resolution (§2.1, §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refinement {
    /// Concurrency reduction: one unmarked causal place `from → to`,
    /// appended after the base places.
    OrderingArc {
        /// The transition that must fire first.
        from: TransitionId,
        /// The delayed transition.
        to: TransitionId,
    },
    /// State-signal insertion: a rising edge (transition `T`, the base
    /// transition count) takes over the non-choice input places of
    /// `plus` and feeds it through a link place; a falling edge
    /// (`T + 1`) does the same before `minus`. The plus link, then the
    /// minus link, are appended after the base places.
    SignalInsertion {
        /// The transition the rising edge precedes.
        plus: TransitionId,
        /// The transition the falling edge precedes.
        minus: TransitionId,
    },
}

/// Tokens on the (at most two) places a [`Refinement`] adds.
type Links = [u32; 2];

/// The automaton a [`Refinement`] adds to the base net. Added place `k`
/// is emptied by `consumers[k]`; it is filled by base transition
/// `producer` (an ordering arc) or by inserted edge `k` (an insertion).
struct Product {
    consumers: Vec<TransitionId>,
    producer: Option<TransitionId>,
    /// Per inserted edge: the non-choice input places it takes over.
    split: Vec<Vec<PlaceId>>,
}

impl Product {
    fn new(net: &PetriNet, refinement: Refinement) -> Self {
        match refinement {
            Refinement::OrderingArc { from, to } => Product {
                consumers: vec![to],
                producer: Some(from),
                split: Vec::new(),
            },
            Refinement::SignalInsertion { plus, minus } => {
                assert_ne!(plus, minus, "an insertion splits two distinct transitions");
                let non_choice = |t: TransitionId| -> Vec<PlaceId> {
                    net.preset(t)
                        .iter()
                        .copied()
                        .filter(|&p| net.place_postset(p).len() == 1)
                        .collect()
                };
                Product {
                    consumers: vec![plus, minus],
                    producer: None,
                    split: vec![non_choice(plus), non_choice(minus)],
                }
            }
        }
    }

    /// The links after base transition `t` fires (it is enabled in the
    /// base state), or `None` when an added place it consumes is empty.
    fn fire_base(&self, t: TransitionId, mut links: Links) -> Option<Links> {
        for (k, &c) in self.consumers.iter().enumerate() {
            if c == t {
                if links[k] == 0 {
                    return None;
                }
                links[k] -= 1;
            }
        }
        if self.producer == Some(t) {
            links[0] += 1;
        }
        Some(links)
    }

    /// The links after inserted edge `k` fires at base marking `m`, if
    /// it is enabled. Its input places are marked iff its link is empty
    /// and the base marks them (the base is safe, so a full link means
    /// the edge already took their tokens) — or it has none, in which
    /// case it is always enabled and a second firing overflows the link.
    fn fire_split(&self, k: usize, mut links: Links, m: &Marking) -> Option<Links> {
        let split = &self.split[k];
        let enabled = split.is_empty() || (links[k] == 0 && split.iter().all(|&p| m.is_marked(p)));
        enabled.then(|| {
            links[k] += 1;
            links
        })
    }

    /// The refined net's marking: the base marking minus the tokens
    /// inserted edges hold back, then the added places.
    fn marking(&self, base: &Marking, links: Links) -> Marking {
        let mut counts = Vec::with_capacity(base.num_places() + self.consumers.len());
        counts.extend_from_slice(base.as_counts());
        for (split, &held) in self.split.iter().zip(&links) {
            if held > 0 {
                for p in split {
                    counts[p.index()] -= 1;
                }
            }
        }
        counts.extend_from_slice(&links[..self.consumers.len()]);
        Marking::from_counts(counts)
    }
}

/// The BFS state of [`StateGraph::derive_bounded`]: dense
/// `(base state, links)` indices, discovery order and arcs.
struct Explorer {
    /// Product index per `(base state << added places) | tag`
    /// (`u32::MAX` = unseen).
    index: Vec<u32>,
    states: Vec<(usize, Links)>,
    arcs: Vec<(usize, TransitionId, usize)>,
    max_states: usize,
}

impl Explorer {
    /// Records the arc `from --t--> (to_b, links)`, numbering a new
    /// state — with the token game's bound and state-limit checks, in
    /// its order.
    fn visit<S: StateSpace + ?Sized>(
        &mut self,
        product: &Product,
        base: &S,
        from: usize,
        t: TransitionId,
        to_b: usize,
        links: Links,
    ) -> Result<(), StgError> {
        if links.iter().any(|&l| l > 1) {
            let m = product.marking(base.marking(to_b), links);
            return Err(ReachError::BoundExceeded(m).into());
        }
        let slot = (to_b << product.consumers.len()) | (links[0] | links[1] << 1) as usize;
        let to = match self.index[slot] {
            u32::MAX => {
                if self.states.len() >= self.max_states {
                    return Err(ReachError::StateLimit(self.max_states).into());
                }
                let to = self.states.len();
                self.index[slot] = u32::try_from(to).expect("state count fits u32");
                self.states.push((to_b, links));
                to
            }
            i => i as usize,
        };
        self.arcs.push((from, t, to));
        Ok(())
    }
}

/// The initial signal values (explicit, else inferred) and every
/// state's code over a reachable transition system.
fn signal_codes(
    stg: &Stg,
    ts: &TransitionSystem<TransitionId>,
) -> Result<(Vec<bool>, Vec<Vec<bool>>), StgError> {
    let initial_values = match stg.initial_values() {
        Some(v) => v.to_vec(),
        None => infer_initial_values(stg, ts),
    };
    let codes = propagate_codes(stg, ts, &initial_values)?;
    Ok((initial_values, codes))
}

/// Infers initial signal values from first-edge polarities (a signal whose
/// first reachable edge is rising starts at 0; falling starts at 1;
/// never-switching signals default to 0).
fn infer_initial_values(stg: &Stg, ts: &TransitionSystem<TransitionId>) -> Vec<bool> {
    let n = stg.num_signals();
    let mut first_edge: Vec<Option<SignalEdge>> = vec![None; n];
    // BFS over the transition structure; the first edge of each signal
    // seen in BFS order decides. A genuinely contradictory STG will then
    // fail the consistency propagation in `propagate_codes`, which
    // re-validates everything, so BFS order cannot smuggle in a wrong
    // answer silently.
    let mut visited = vec![false; ts.num_states()];
    let mut queue = VecDeque::new();
    visited[0] = true;
    queue.push_back(0usize);
    while let Some(s) = queue.pop_front() {
        for (&t, to) in ts.successors(s) {
            if let Some(l) = stg.label(t) {
                let slot = &mut first_edge[l.signal.index()];
                if slot.is_none() {
                    *slot = Some(l.edge);
                }
            }
            if !visited[to] {
                visited[to] = true;
                queue.push_back(to);
            }
        }
    }
    first_edge
        .into_iter()
        .map(|e| match e {
            Some(SignalEdge::Rise) | None => false,
            Some(SignalEdge::Fall) => true,
        })
        .collect()
}

/// Propagates binary codes from state `0` over the transition structure,
/// validating consistency (§2.1) along the way.
fn propagate_codes(
    stg: &Stg,
    ts: &TransitionSystem<TransitionId>,
    initial_values: &[bool],
) -> Result<Vec<Vec<bool>>, StgError> {
    let mut codes: Vec<Option<Vec<bool>>> = vec![None; ts.num_states()];
    codes[0] = Some(initial_values.to_vec());
    let mut queue = VecDeque::new();
    queue.push_back(0usize);
    while let Some(s) = queue.pop_front() {
        let code = codes[s].clone().expect("queued states are coded");
        for (&t, to) in ts.successors(s) {
            let mut next = code.clone();
            if let Some(label) = stg.label(t) {
                let idx = label.signal.index();
                let expected_before = !label.edge.value_after();
                if next[idx] != expected_before {
                    return Err(StgError::InconsistentEdge {
                        transition: stg.label_string(t),
                        state: s,
                    });
                }
                next[idx] = label.edge.value_after();
            }
            match &codes[to] {
                Some(existing) => {
                    if *existing != next {
                        return Err(StgError::InconsistentCode { state: to });
                    }
                }
                None => {
                    codes[to] = Some(next);
                    queue.push_back(to);
                }
            }
        }
    }
    Ok(codes
        .into_iter()
        .map(|c| c.expect("state spaces are connected from state 0"))
        .collect())
}

/// Builds the code → states index (state indices per code, in ascending
/// order).
fn build_code_index(states: &[SgState]) -> HashMap<Vec<bool>, Vec<usize>> {
    let mut map: HashMap<Vec<bool>, Vec<usize>> = HashMap::new();
    for (i, s) in states.iter().enumerate() {
        map.entry(s.code.clone()).or_default().push(i);
    }
    map
}

/// Result alias used throughout the crate.
pub type Result<T, E = StgError> = std::result::Result<T, E>;

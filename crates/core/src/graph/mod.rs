//! The Device Interaction Graph (DIG) of Section III.
//!
//! A DIG is an extended causal graph `G = (V, E, P)` whose nodes are
//! time-lagged device states, whose directed edges point from time-lagged
//! causes to present-time outcomes, and whose conditional probability
//! tables quantify each outcome's state distribution under its causes.
//!
//! Under the paper's two assumptions — the τ-th-order Markov assumption
//! (causes lag at most τ) and the stationarity assumption (interactions are
//! time-invariant) — the whole graph is determined by, for each device `i`,
//! the cause set `Ca(S_i^t)` and the CPT
//! `P(S_i^t | Ca(S_i^t))`. That is exactly what [`Dig`] stores.

mod cpt;
mod dig;
mod dot;
mod persist;
mod var;

pub use cpt::{Cpt, UnseenContext};
pub use dig::{Dig, Interaction};
pub use dot::render_dot;
pub(crate) use persist::read_dig;
pub use persist::{load_dig, save_dig};
pub use var::LaggedVar;

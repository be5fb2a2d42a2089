//! # ft-algos — the scheduling heuristics
//!
//! Implements the four schedulers the paper evaluates:
//!
//! * [`heft()`](heft::heft) — the fault-free reference (Topcuoglu et al. \[27\]); per §6,
//!   "the fault-free version of CAFT reduces to an implementation of HEFT".
//!   Implemented as FTSA with `ε = 0`.
//! * [`ftsa()`](ftsa::ftsa) — Fault Tolerant Scheduling Algorithm \[4\] (§4.2): each task
//!   replicated `ε + 1` times on the processors minimizing its finish time;
//!   every replica of every predecessor sends to every replica (up to
//!   `e(ε+1)²` messages).
//! * [`ftbar()`](ftbar::ftbar) — Fault Tolerance Based Active Replication, Girault et al.
//!   \[10\] (§4.1): schedule-pressure driven selection over *all* free tasks.
//! * [`caft()`](caft::caft) — the paper's contribution (§5): Contention-Aware Fault
//!   Tolerant scheduling. On top of FTSA's structure it adds the
//!   *one-to-one mapping* procedure (Algorithm 5.2): when enough singleton
//!   processors hold predecessor replicas, each replica of a predecessor
//!   sends to exactly one replica of the current task, and both the chosen
//!   processor and the senders are locked (equation (7)) to preserve the
//!   ε-failure guarantee, cutting message volume towards `e(ε+1)`.
//!
//! Every scheduler runs under either communication model
//! ([`CommModel::MacroDataflow`] or [`CommModel::OnePort`]); the one-port
//! adaptations follow §4.3 (equations (4)–(6)) via
//! [`ft_model::NetworkState`].
//!
//! All schedulers are deterministic given their `seed` (used only to break
//! priority ties, which the paper breaks randomly).

#![warn(missing_docs)]

pub mod caft;
pub mod common;
pub mod ftbar;
pub mod ftsa;
pub mod heft;
pub mod prio;
pub mod subdag;
pub mod windowed;

pub use caft::{caft, caft_hardened, caft_with, CaftOptions};
pub use common::CaftScratch;
pub use ftbar::{ftbar, ftbar_with, FtbarOptions};
pub use ftsa::{ftsa, ftsa_with, FtsaOptions};
pub use heft::heft;
pub use subdag::{caft_on_subdag, caft_on_subdag_in, SubDagOutcome, SubDagSpec, SubDagView};
pub use windowed::{caft_windowed, caft_windowed_with, WindowedOptions};

pub use ft_model::CommModel;

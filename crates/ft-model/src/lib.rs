//! # ft-model — communication models and fault-tolerant schedules
//!
//! The paper contrasts two platform communication models (§2–§4):
//!
//! * **macro-dataflow** — the classical model: unlimited communication
//!   resources, any number of concurrent transfers; a message from `Pk` to
//!   `Ph` simply takes `V · d(Pk, Ph)`;
//! * **bi-directional one-port** — at any time-step a processor sends to at
//!   most one processor and receives from at most one processor
//!   (full-duplex), at most one message occupies a link, and communication
//!   overlaps computation. Formally, constraints (1)–(3) of §4.3.
//!
//! This crate implements both behind one interface ([`NetworkState`]): the
//! scheduling heuristics *plan* a batch of incoming messages towards a
//! candidate processor (a pure computation), pick the best candidate, and
//! *commit* the chosen plan. Under the one-port model a message occupies a
//! single interval `[S, S + W]` simultaneously on the sender's send port,
//! the link, and the receiver's receive port, which satisfies the paper's
//! constraints (1)–(3) exactly; within a batch, messages are ordered by
//! their unconstrained link finish times and chained through the receive
//! port, mirroring equation (6) (see DESIGN.md §2 for the one deliberate
//! deviation: we keep reception fully serialized where eq. (6) as printed
//! can slightly overlap receptions).
//!
//! The outcome of scheduling is an [`FtSchedule`]: one placement per
//! replica (`ε + 1` replicas per task, §2) plus every message with its
//! resource intervals. [`validate`] re-checks an entire schedule against
//! the model's constraints from scratch — precedence, port/link
//! exclusivity, and the space exclusion of replicas — so every algorithm's
//! output is independently auditable.

#![warn(missing_docs)]

pub mod comm;
pub mod gantt;
pub mod replica;
pub mod schedule;
pub mod state;
pub mod stats;
pub mod timeline;
pub mod validate;

pub use comm::{CommModel, MsgSpec, PlannedMsg};
pub use replica::{Replica, ReplicaRef};
pub use schedule::{FtSchedule, MessageRecord};
pub use state::{NetworkState, PlanScratch};
pub use stats::{schedule_stats, ScheduleStats};
pub use validate::{validate_schedule, ValidationError};

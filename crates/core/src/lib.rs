//! # anton-core — the Anton machine model and MD time-step schedule
//!
//! The paper's primary contribution, reproduced in simulation: the full
//! mapping of the MD dataflow (Figure 2) onto counted remote writes,
//! multicast, accumulation memories, and message FIFOs, with the
//! software principles of §IV.A (fixed patterns, synchronization embedded
//! in communication, dataflow-dependency buffer reuse, fine-grained
//! messages, hop minimization), plus the bond program with regeneration
//! (§IV.B.2, Figure 11) and relaxed home boxes with infrequent migration
//! (§IV.B.5, Figure 12).

#![warn(missing_docs)]

pub mod bondprog;
pub mod cost;
pub mod decomp;
pub mod engine;
pub mod fftplan;
pub mod parstep;
pub mod patterns;
pub mod program;
pub mod state;

pub use bondprog::{BondProgram, NodeTerms};
pub use cost::CostModel;
pub use decomp::{wrap_signed, Decomposition};
pub use engine::{AntonMdEngine, Energies};
pub use parstep::{
    md_exchange, run_md_exchange, run_md_exchange_par_mode,
    run_md_exchange_par_mode_profiled_timed, run_md_exchange_recorded,
    run_md_exchange_streamed_par_timed, run_md_exchange_timed, MdExchangeNode, MdExchangeOutcome,
    MdExchangeParams,
};
pub use program::{MdNode, TRACK_GC, TRACK_HTIS, TRACK_TS};
pub use state::{AntonConfig, EpochPlan, MachineState, StepTiming};

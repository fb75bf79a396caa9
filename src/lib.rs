//! Facade crate for the `ftsl` workspace: re-exports the public API of every
//! subsystem so examples and integration tests can use a single import root,
//! and holds [`figures`], the paper's Section 6 experiment series.
pub use ftsl_algebra as algebra;
pub use ftsl_calculus as calculus;
pub use ftsl_core as core;
pub use ftsl_corpus as corpus;
pub use ftsl_exec as exec;
pub use ftsl_index as index;
pub use ftsl_lang as lang;
pub use ftsl_model as model;
pub use ftsl_obs as obs;
pub use ftsl_predicates as predicates;
pub use ftsl_scoring as scoring;
pub use ftsl_serve as serve;

pub mod figures;

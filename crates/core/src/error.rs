//! Unified error type for the facade.

use std::fmt;

/// Any error the facade can produce.
#[derive(Clone, Debug)]
pub enum FtslError {
    /// Parse/lowering error.
    Lang(String),
    /// Execution error.
    Exec(String),
    /// Internal translation error.
    Internal(String),
}

impl fmt::Display for FtslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtslError::Lang(m) => write!(f, "query error: {m}"),
            FtslError::Exec(m) => write!(f, "execution error: {m}"),
            FtslError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for FtslError {}

impl From<ftsl_lang::LangError> for FtslError {
    fn from(e: ftsl_lang::LangError) -> Self {
        FtslError::Lang(e.to_string())
    }
}

impl From<ftsl_exec::ExecError> for FtslError {
    /// A lowering failure is a query error at every entry point.
    fn from(e: ftsl_exec::ExecError) -> Self {
        match e {
            ftsl_exec::ExecError::Lang(msg) => FtslError::Lang(msg),
            other => FtslError::Exec(other.to_string()),
        }
    }
}

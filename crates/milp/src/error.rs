//! Solver error type.

use std::fmt;

/// Errors reported by the MILP solver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MilpError {
    /// The problem has no feasible solution.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// A node/time limit was reached before any integer-feasible solution
    /// was found.
    LimitWithoutSolution,
    /// A variable index did not belong to the model.
    BadVar(usize),
    /// The model is malformed (e.g. a variable with `lb > ub`, or a
    /// non-finite coefficient).
    BadModel(String),
    /// The simplex failed to converge within its iteration budget,
    /// indicating a numerical problem.
    Numerical(String),
}

impl fmt::Display for MilpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilpError::Infeasible => write!(f, "problem is infeasible"),
            MilpError::Unbounded => write!(f, "problem is unbounded"),
            MilpError::LimitWithoutSolution => {
                write!(f, "limit reached before a feasible solution was found")
            }
            MilpError::BadVar(i) => write!(f, "variable index {i} is not in the model"),
            MilpError::BadModel(s) => write!(f, "malformed model: {s}"),
            MilpError::Numerical(s) => write!(f, "numerical failure: {s}"),
        }
    }
}

impl std::error::Error for MilpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_static() {
        fn check<T: Send + Sync + 'static>() {}
        check::<MilpError>();
    }

    #[test]
    fn display_messages_are_lowercase() {
        for e in [
            MilpError::Infeasible,
            MilpError::Unbounded,
            MilpError::LimitWithoutSolution,
            MilpError::BadVar(3),
        ] {
            assert!(e.to_string().starts_with(char::is_lowercase));
        }
    }
}

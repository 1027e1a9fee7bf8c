//! Registers and statements of the paper's programs (§2.2).
//!
//! A program is a finite sequence of project, join, and semijoin statements.
//! The head of a project or join statement must be a relation scheme
//! *variable*; a semijoin statement's head is also its left operand (it
//! reduces a relation in place and never widens its scheme). Base relation
//! schemes may appear as semijoin heads — that is how programs reduce input
//! relations.

use mjoin_relation::AttrSet;

/// A register: either an input relation occurrence (`R(Rᵢ)` for a scheme of
/// the database scheme) or a relation scheme variable created by the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reg {
    /// Input relation occurrence `idx` of the database scheme.
    Base(usize),
    /// Program-created relation scheme variable `idx`.
    Temp(usize),
}

impl Reg {
    /// Whether this is a variable (legal head for project/join statements).
    pub fn is_temp(self) -> bool {
        matches!(self, Reg::Temp(_))
    }
}

/// One statement. Execution assigns the body's result to the head,
/// destructively (§2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `R(dst) := π_attrs R(src)` — requires `attrs ⊆ scheme(src)` and a
    /// variable head; afterwards `scheme(dst) = attrs`.
    Project {
        /// Head (must be [`Reg::Temp`]).
        dst: Reg,
        /// Body relation.
        src: Reg,
        /// The projection attribute set `U`.
        attrs: AttrSet,
    },
    /// `R(dst) := R(left) ⋈ R(right)` — variable head; afterwards
    /// `scheme(dst) = scheme(left) ∪ scheme(right)`.
    Join {
        /// Head (must be [`Reg::Temp`]).
        dst: Reg,
        /// Left body relation.
        left: Reg,
        /// Right body relation.
        right: Reg,
    },
    /// `R(target) := R(target) ⋉ R(filter)` — the head is the left operand;
    /// the head's scheme is unchanged.
    Semijoin {
        /// Head and left operand.
        target: Reg,
        /// The reducing relation.
        filter: Reg,
    },
}

impl Stmt {
    /// The head register written by this statement.
    pub fn head(&self) -> Reg {
        match *self {
            Stmt::Project { dst, .. } => dst,
            Stmt::Join { dst, .. } => dst,
            Stmt::Semijoin { target, .. } => target,
        }
    }

    /// The registers read by this statement (the body).
    pub fn reads(&self) -> Vec<Reg> {
        match *self {
            Stmt::Project { src, .. } => vec![src],
            Stmt::Join { left, right, .. } => vec![left, right],
            Stmt::Semijoin { target, filter } => vec![target, filter],
        }
    }

    /// Whether this is a semijoin (used by the semijoin-stripping ablation).
    pub fn is_semijoin(&self) -> bool {
        matches!(self, Stmt::Semijoin { .. })
    }

    /// Whether this is a join.
    pub fn is_join(&self) -> bool {
        matches!(self, Stmt::Join { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_relation::AttrId;

    #[test]
    fn head_and_reads() {
        let p = Stmt::Project {
            dst: Reg::Temp(0),
            src: Reg::Base(1),
            attrs: AttrSet::singleton(AttrId(0)),
        };
        assert_eq!(p.head(), Reg::Temp(0));
        assert_eq!(p.reads(), vec![Reg::Base(1)]);
        assert!(!p.is_join() && !p.is_semijoin());

        let j = Stmt::Join {
            dst: Reg::Temp(1),
            left: Reg::Temp(0),
            right: Reg::Base(2),
        };
        assert_eq!(j.head(), Reg::Temp(1));
        assert_eq!(j.reads(), vec![Reg::Temp(0), Reg::Base(2)]);
        assert!(j.is_join());

        let s = Stmt::Semijoin {
            target: Reg::Base(0),
            filter: Reg::Temp(1),
        };
        assert_eq!(s.head(), Reg::Base(0));
        assert_eq!(s.reads(), vec![Reg::Base(0), Reg::Temp(1)]);
        assert!(s.is_semijoin());
    }

    #[test]
    fn reg_is_temp() {
        assert!(Reg::Temp(0).is_temp());
        assert!(!Reg::Base(0).is_temp());
    }
}

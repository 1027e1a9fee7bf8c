//! The seed's interpreter, preserved as the performance baseline.
//!
//! Before the zero-copy executor landed, `Machine` registers held owned
//! `Relation`s and every operand read deep-copied the whole relation
//! (an O(|R|) allocation storm per statement — reproduced here explicitly
//! by [`deep_copy`], since `Relation::clone` itself is `Arc`-cheap now).
//! This module replicates those semantics exactly, on the sequential
//! operators, so `exp_par` can measure what the shared-ownership registers
//! and pooled operators actually buy over the status quo ante — and it
//! doubles as a second correctness oracle for the new executor.

use mjoin_program::{Program, Reg, Stmt};
use mjoin_relation::{ops, CostLedger, Database, Relation, Schema};

/// Outcome of a baseline (deep-clone) execution, mirroring `ExecOutcome`.
pub struct BaselineOutcome {
    /// The relation in the program's declared result register.
    pub result: Relation,
    /// §2.3 cost ledger (inputs + every statement head).
    pub ledger: CostLedger,
    /// `|head|` after each statement, in execution order.
    pub head_sizes: Vec<usize>,
    /// Peak resident tuples across statement boundaries.
    pub peak_resident: u64,
}

struct Machine {
    bases: Vec<Relation>,
    temps: Vec<Option<Relation>>,
}

/// The seed's per-read copy, reproduced explicitly: a fresh row vector with
/// every `Box<[Value]>` reallocated. `Relation::clone` no longer does this —
/// it shares both views by `Arc` — so the baseline must spell the
/// allocation storm out to keep measuring the status quo ante. The copy is
/// row-born, so the operator that reads it also converts it to columns.
fn deep_copy(rel: &Relation) -> Relation {
    Relation::from_distinct_rows(rel.schema().clone(), rel.rows().to_vec())
}

impl Machine {
    /// Read a register *by deep copy*; unwritten variables read through
    /// their alias chain. This copy-per-read is the behaviour under test.
    fn read(&self, program: &Program, reg: Reg) -> Relation {
        let mut cur = reg;
        loop {
            match cur {
                Reg::Base(i) => return deep_copy(&self.bases[i]),
                Reg::Temp(t) => match &self.temps[t] {
                    Some(rel) => return deep_copy(rel),
                    None => {
                        cur = program.temp_init[t]
                            .expect("validated: unwritten variable has an alias");
                    }
                },
            }
        }
    }

    fn write(&mut self, reg: Reg, rel: Relation) {
        match reg {
            Reg::Base(i) => self.bases[i] = rel,
            Reg::Temp(t) => self.temps[t] = Some(rel),
        }
    }
}

/// Execute `program` on `db` with the seed's deep-clone register semantics
/// and strictly sequential operators.
pub fn execute_deep_clone(program: &Program, db: &Database) -> BaselineOutcome {
    assert_eq!(
        program.num_bases,
        db.len(),
        "program and database disagree on the number of relations"
    );
    let mut ledger = CostLedger::new();
    db.charge_inputs(&mut ledger);

    let mut m = Machine {
        bases: db.relations().to_vec(),
        temps: vec![None; program.temp_names.len()],
    };
    let mut head_sizes = Vec::with_capacity(program.stmts.len());
    let resident = |m: &Machine| -> u64 {
        m.bases.iter().map(|r| r.len() as u64).sum::<u64>()
            + m.temps
                .iter()
                .flatten()
                .map(|r| r.len() as u64)
                .sum::<u64>()
    };
    let mut peak_resident = resident(&m);

    for (i, stmt) in program.stmts.iter().enumerate() {
        let (head, value) = match stmt {
            Stmt::Project { dst, src, attrs } => {
                let src_rel = m.read(program, *src);
                let schema = Schema::from_set(attrs);
                let projected = ops::project(&src_rel, schema.attrs())
                    .expect("validated: projection attrs ⊆ source scheme");
                (*dst, projected)
            }
            Stmt::Join { dst, left, right } => {
                let l = m.read(program, *left);
                let r = m.read(program, *right);
                (*dst, ops::join(&l, &r))
            }
            Stmt::Semijoin { target, filter } => {
                let t = m.read(program, *target);
                let f = m.read(program, *filter);
                (*target, ops::semijoin(&t, &f))
            }
        };
        ledger.charge_generated(format!("stmt {i}"), value.len());
        head_sizes.push(value.len());
        m.write(head, value);
        peak_resident = peak_resident.max(resident(&m));
    }

    let result = m.read(program, program.result);
    BaselineOutcome {
        result,
        ledger,
        head_sizes,
        peak_resident,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_core::FirstChoice;
    use mjoin_expr::JoinTree;
    use mjoin_relation::Catalog;
    use mjoin_workloads::{random_database, schemes, DataGenConfig};

    /// The baseline and both new executors agree on every observable —
    /// making the baseline a trustworthy timing comparison target.
    #[test]
    fn baseline_agrees_with_both_executors() {
        let mut c = Catalog::new();
        let s = schemes::chain(&mut c, 4);
        let db = random_database(
            &s,
            &DataGenConfig {
                tuples_per_relation: 50,
                domain: 6,
                seed: 3,
                plant_witness: true,
            },
        );
        let mut t = JoinTree::leaf(0);
        for i in 1..4 {
            t = JoinTree::join(t, JoinTree::leaf(i));
        }
        let d = mjoin_core::derive_with_policy(&s, &t, &mut FirstChoice).unwrap();
        let base = execute_deep_clone(&d.program, &db);
        let seq = mjoin_program::execute(&d.program, &db);
        let par = mjoin_program::execute_parallel(&d.program, &db, 4);
        assert_eq!(base.result, *seq.result);
        assert_eq!(base.result, *par.result);
        assert_eq!(base.head_sizes, seq.head_sizes);
        assert_eq!(base.ledger, seq.ledger);
        assert_eq!(base.peak_resident, par.peak_resident);
    }
}

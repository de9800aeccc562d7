//! Key families and stable template names shared by the static conflict analysis.
//!
//! Templates are abstracted to the *key families* they touch — the key-space prefixes a
//! workload reads and writes (`checking:`, `savings:`, `usertable:`, `kv:`) — and every
//! generated [`TxnTemplate`] maps to one stable template name. [`crate::conflict`] builds its
//! symbolic footprints and its safe classification on both.

use crate::generator::TxnTemplate;

/// A key family: the key-space prefix a template's operations target.
pub type KeyFamily = &'static str;

/// The `kv:` family (the Figure 1 single-key-update workload).
pub const FAMILY_KV: KeyFamily = "kv";
/// The `checking:` family (Smallbank checking balances).
pub const FAMILY_CHECKING: KeyFamily = "checking";
/// The `savings:` family (Smallbank savings balances).
pub const FAMILY_SAVINGS: KeyFamily = "savings";
/// The `usertable:` family (YCSB records).
pub const FAMILY_USERTABLE: KeyFamily = "usertable";

/// The stable template name of a generated template — the name its footprint carries in
/// [`crate::conflict::symbolic_catalog`].
pub fn template_spec_name(template: &TxnTemplate) -> &'static str {
    use crate::smallbank::SmallbankOp;
    match template {
        TxnTemplate::NoOp => "noop",
        TxnTemplate::KvUpdate { .. } => "kv-update",
        TxnTemplate::Smallbank(op) => match op {
            SmallbankOp::CreateAccount { .. } => "create-account",
            SmallbankOp::QueryAccount { .. } => "query-account",
            SmallbankOp::DepositChecking { .. } => "deposit-checking",
            SmallbankOp::WriteCheck { .. } => "write-check",
            SmallbankOp::TransactSavings { .. } => "transact-savings",
            SmallbankOp::SendPayment { .. } => "send-payment",
            SmallbankOp::Amalgamate { .. } => "amalgamate",
            SmallbankOp::ModifiedRw { .. } => "modified-rw",
        },
        TxnTemplate::Ycsb(_) => "ycsb",
    }
}

#[cfg(test)]
mod tests {
    use crate::conflict::ConflictAnalyzer;
    use crate::generator::{TxnTemplate, WorkloadKind};
    use crate::smallbank::SmallbankOp;
    use crate::ycsb::{YcsbProfile, YcsbTxn};
    use eov_common::config::WorkloadParams;
    use eov_common::txn::TemplateClass::{self, Safe, Unknown};

    fn analyzer(kind: &WorkloadKind) -> ConflictAnalyzer {
        let params = WorkloadParams {
            num_accounts: 400,
            ..WorkloadParams::default()
        };
        ConflictAnalyzer::new(kind, &params)
    }

    fn classes_of(kind: &WorkloadKind) -> Vec<(&'static str, TemplateClass)> {
        let analyzer = analyzer(kind);
        let matrix = analyzer.matrix();
        matrix
            .templates
            .iter()
            .copied()
            .zip(matrix.classes.iter().copied())
            .collect()
    }

    /// The pinned per-mix template verdicts: every mix × template verdict is part of the
    /// fast path's correctness contract and must not drift silently.
    #[test]
    fn classification_table_is_pinned() {
        let ycsb = |profile| classes_of(&WorkloadKind::Ycsb(profile));
        assert_eq!(classes_of(&WorkloadKind::NoOp), vec![("noop", Safe)]);
        assert_eq!(
            classes_of(&WorkloadKind::KvUpdate { theta: 0.5 }),
            vec![("kv-update", Unknown)]
        );
        assert_eq!(
            classes_of(&WorkloadKind::ModifiedSmallbank),
            vec![("modified-rw", Unknown)]
        );
        assert_eq!(
            classes_of(&WorkloadKind::CreateAccount),
            vec![("create-account", Safe)]
        );
        // Mixed Smallbank: writers cover both families, so even the read-only query is
        // unknown (it can sit between a near-wr predecessor and an anti-rw successor).
        assert_eq!(
            classes_of(&WorkloadKind::MixedSmallbank { theta: 0.5 }),
            vec![
                ("query-account", Unknown),
                ("deposit-checking", Unknown),
                ("write-check", Unknown),
                ("transact-savings", Unknown),
                ("send-payment", Unknown),
                ("amalgamate", Unknown),
            ]
        );
        // YCSB: only the pure-read C mix qualifies at template level; the write partition
        // rescues B instances, not the B template.
        assert_eq!(ycsb(YcsbProfile::a()), vec![("ycsb", Unknown)]);
        assert_eq!(ycsb(YcsbProfile::b()), vec![("ycsb", Unknown)]);
        assert_eq!(
            ycsb(YcsbProfile::b().with_write_partition(0.125)),
            vec![("ycsb", Unknown)]
        );
        assert_eq!(ycsb(YcsbProfile::f()), vec![("ycsb", Unknown)]);
        assert_eq!(ycsb(YcsbProfile::c()), vec![("ycsb", Safe)]);
    }

    /// Generated templates are tagged through their stable names; templates outside the mix
    /// are conservatively unknown.
    #[test]
    fn classifier_tags_generated_templates() {
        let c = analyzer(&WorkloadKind::Ycsb(YcsbProfile::c()));
        assert!(c.any_safe_possible());
        let txn = TxnTemplate::Ycsb(YcsbTxn { ops: vec![] });
        assert_eq!(c.classify_template(&txn), Safe);
        assert_eq!(c.classify_template(&TxnTemplate::NoOp), Unknown);

        let mixed = analyzer(&WorkloadKind::MixedSmallbank { theta: 0.0 });
        assert!(!mixed.any_safe_possible());
        let query = TxnTemplate::Smallbank(SmallbankOp::QueryAccount { account: 0 });
        assert_eq!(mixed.classify_template(&query), Unknown);
    }
}

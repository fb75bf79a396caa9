//! One error kind for a bad query: a query that parses but fails lowering
//! (here, an unknown predicate) is `FtslError::Lang` at every entry point,
//! set or ranked, run or explained.

use ftsl_core::{Ftsl, FtslError, RankModel};
use ftsl_exec::engine::EngineKind;
use ftsl_lang::Mode;

#[test]
fn a_lowering_failure_is_a_query_error_everywhere() {
    let e = Ftsl::from_texts(&["a software measures usability", "a task"]);
    let q = "SOME p1 (p1 HAS 'a' AND nosuchpred(p1))";
    let errors = [
        ("search", e.search(q).err()),
        (
            "search_with",
            e.search_with(q, Mode::Comp, EngineKind::Auto).err(),
        ),
        ("search_ranked", e.search_ranked(q, RankModel::TfIdf).err()),
        ("search_top_k", e.search_top_k(q, RankModel::Pra, 3).err()),
        ("explain", e.explain(q).err()),
        ("explain_analyze", e.explain_analyze(q).err()),
    ];
    for (entry, err) in errors {
        match err {
            Some(FtslError::Lang(msg)) => assert!(msg.contains("nosuchpred"), "{entry}: {msg}"),
            other => panic!("{entry}: want a query error, got {other:?}"),
        }
    }
}

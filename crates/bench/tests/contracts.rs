//! The bench contracts: the committed trajectory artifacts are full runs
//! that pass them, and each defect they exist to catch is rejected.

use mube_bench::{check_committed, check_contracts, BENCHES};
use mube_serve::json::Json;

#[test]
fn committed_artifacts_are_full_runs_that_meet_their_contracts() {
    for bench in BENCHES {
        let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), bench.artifact);
        let artifact = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let name = artifact.get("bench").and_then(Json::as_str);
        assert_eq!(name, Some(bench.name));
        assert_eq!(check_committed(&artifact), Ok(()), "{}", bench.artifact);
    }
}

/// A tenancy row carrying every key and flag its contract requires.
const ROW: &str = r#"{"snapshot_build_millis": 1.5, "session_mean_millis": 300,
    "serial_millis": 600, "concurrent_millis": 310, "counters": {},
    "arena_entries": [3], "replay_bit_identical": true}"#;

fn tenancy(mode: &str, rows: &[&str]) -> Json {
    let sizes = rows.join(", ");
    let text = format!(
        r#"{{"bench": "tenancy", "mode": "{mode}", "host_threads": 2,
            "determinism": "asserted", "sizes": [{sizes}]}}"#
    );
    Json::parse(&text).unwrap()
}

/// A kernels or scale artifact: `body` and `tail` are its members.
fn thresholds(body: &str, tail: &str) -> Json {
    Json::parse(&format!("{{{body}, {tail}}}")).unwrap()
}

const FULL: &str = r#""mode": "full""#;
const SMOKE: &str = r#""mode": "smoke""#;
const VERDICT: &str = r#""mode": "full", "meets_thresholds": true"#;

const KERNELS: &str = r#""bench": "sim_kernels", "host_threads": 1,
    "pairwise_jaccard": {"bit_identical": true, "string_millis": 31, "packed_millis": 10},
    "matrix_fill": {"bit_identical": true, "pre_pr_millis": 22, "packed_millis": 10},
    "selection_ops": {"results_equal": true, "scalar_millis": 9, "packed_millis": 1}"#;

const SCALE: &str = r#""bench": "scale_match", "host_threads": 1,
    "identity": [{"bit_identical": true, "lossless": {"candidate_pairs": 4},
        "solve": {"solutions_identical": true},
        "tau_arm": {"solutions_identical": true, "counters": {"candidate_pairs": 3}}}],
    "scale": {"dense_refused": true, "counters": {"candidate_pairs": 9}}"#;

#[test]
fn good_artifacts_pass_in_either_mode() {
    assert_eq!(check_committed(&tenancy("full", &[ROW, ROW, ROW])), Ok(()));
    assert_eq!(check_contracts(&tenancy("smoke", &[ROW])), Ok(()));
    for body in [KERNELS, SCALE] {
        assert_eq!(check_committed(&thresholds(body, VERDICT)), Ok(()));
        assert_eq!(check_contracts(&thresholds(body, SMOKE)), Ok(()));
    }
}

#[test]
fn each_defect_is_rejected() {
    let false_flag = ROW.replace("true", "false");
    let no_flag = ROW.replace(r#", "replay_bit_identical": true"#, "");
    // The check reads parsed numbers, so compact output is caught too.
    let gaps = [r#""gap":-0.1"#, r#""gap": -1e-12"#, r#""gap": "none""#]
        .map(|gap| ROW.replace("{}", &format!("{{{gap}}}")));
    let (flag, verdict) = (
        "row 1: replay_bit_identical must be true",
        "meets_thresholds must be true in a full run",
    );
    let mut cases = vec![
        // One row with a contract flag set to false among good rows.
        (tenancy("full", &[ROW, &false_flag, ROW]), flag),
        (tenancy("full", &[ROW, &no_flag]), flag),
        (tenancy("full", &[]), "sizes[]: no rows"),
        (thresholds(KERNELS, FULL), verdict),
        (thresholds(SCALE, FULL), verdict),
    ];
    let negative = "is not a non-negative number";
    cases.extend(
        gaps.iter()
            .map(|row| (tenancy("smoke", &[ROW, row]), negative)),
    );
    for (artifact, complaint) in cases {
        let rejection = check_contracts(&artifact).expect_err(complaint);
        assert!(rejection.contains(complaint), "{rejection}");
    }
    // A smoke artifact offered as a committed one.
    let smoke = check_committed(&tenancy("smoke", &[ROW])).unwrap_err();
    assert!(smoke.contains("full run"), "{smoke}");
}

//! Reference scores: `(workload, Monte-Carlo seed, prefab_score,
//! postfab_score)` of the design run each workload makes, recorded with
//! `e2ebench --record`. Every run's scores must match these within
//! [`crate::SCORE_REL_TOL`]; re-record only for a change that is meant to
//! change designs, and say so where the change is described.

use crate::workload::Workload;

const REFERENCE: &[(&str, u64, f64, f64)] = &[
    ("bend-direct", 11, 0.9676261961316917, 0.9422957520634976),
    ("bend-direct", 23, 0.9676261961316917, 0.9431638913557827),
    ("bend-direct", 37, 0.9676261961316917, 0.9419469510660853),
    ("bend-direct", 41, 0.9676261961316917, 0.9472503531850642),
    ("bend-direct", 53, 0.9676261961316917, 0.9494304776763544),
    ("bend-direct", 67, 0.9676261961316917, 0.9472631783633789),
    ("bend-direct", 79, 0.9676261961316917, 0.9483319007945622),
    ("bend-direct", 97, 0.9676261961316917, 0.9419223441741136),
    ("isolator-fast", 11, 5.377308593460414, 2.487421911604771),
    ("isolator-fast", 23, 5.377308593460414, 2.4154074293057004),
    ("isolator-fast", 37, 5.377308593460414, 2.2127065444407314),
    ("isolator-fast", 41, 5.377308593460414, 2.3973990261377263),
    ("isolator-fast", 53, 5.377308593460414, 2.1526861784492057),
    ("isolator-fast", 67, 5.377308593460414, 2.571740243637817),
    ("isolator-fast", 79, 5.377308593460414, 1.9241735503332233),
    ("isolator-fast", 97, 5.377308593460414, 1.9450838614845711),
    (
        "crossing-broadband",
        11,
        0.9670544572028783,
        0.9390527143082902,
    ),
    (
        "crossing-broadband",
        23,
        0.9670544572028783,
        0.9188009685068208,
    ),
    (
        "crossing-broadband",
        37,
        0.9670544572028783,
        0.9219123142018015,
    ),
    (
        "crossing-broadband",
        41,
        0.9670544572028783,
        0.923784421647836,
    ),
    (
        "crossing-broadband",
        53,
        0.9670544572028783,
        0.9420328065358121,
    ),
    (
        "crossing-broadband",
        67,
        0.9670544572028783,
        0.9221086652401033,
    ),
    (
        "crossing-broadband",
        79,
        0.9670544572028783,
        0.9414934656055365,
    ),
    (
        "crossing-broadband",
        97,
        0.9670544572028783,
        0.9433407694323808,
    ),
];

/// `(prefab_score, postfab_score)` recorded for `w` at `mc_seed`.
pub fn lookup(w: Workload, mc_seed: u64) -> Option<(f64, f64)> {
    REFERENCE
        .iter()
        .find(|(name, seed, _, _)| *name == w.name() && *seed == mc_seed)
        .map(|&(_, _, prefab, postfab)| (prefab, postfab))
}

//! `BuildGraph::from_targets` against a naive reference kept here: the
//! name-keyed Kahn over a `BTreeSet` frontier that the graph used before
//! it ordered dense positions, plus a reachability definition of the
//! targets a `DependencyCycle` names. On random target sets with
//! duplicates, dangling labels, self-dependencies, cycles and ties, both
//! give the same topological order or the same error.

use proptest::prelude::*;
use sq_build::{BuildError, BuildGraph, RuleKind, Target, TargetName};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::str::FromStr;

fn n(s: &str) -> TargetName {
    TargetName::from_str(s).unwrap()
}

fn t(name: &str, deps: &[&str]) -> Target {
    Target::new(
        n(name),
        RuleKind::Library,
        vec![],
        deps.iter().map(|d| n(d)).collect(),
    )
}

/// The reference: duplicates in input order, dangling labels in name
/// order, then Kahn with a name-ordered `BTreeSet` frontier. A cycle
/// names the stuck targets that some cycle reaches (on a cycle, or
/// between two): reachability, computed from scratch per target.
fn reference(targets: Vec<Target>) -> Result<Vec<TargetName>, BuildError> {
    let mut map: BTreeMap<TargetName, Target> = BTreeMap::new();
    for t in targets {
        if map.contains_key(&t.name) {
            return Err(BuildError::DuplicateTarget(t.name));
        }
        map.insert(t.name.clone(), t);
    }
    for t in map.values() {
        for d in &t.deps {
            if !map.contains_key(d) {
                return Err(BuildError::UnknownDependency {
                    target: t.name.clone(),
                    dep: d.clone(),
                });
            }
        }
    }
    let mut indegree: BTreeMap<&TargetName, usize> = BTreeMap::new();
    let mut dependents: HashMap<&TargetName, Vec<&TargetName>> = HashMap::new();
    for t in map.values() {
        indegree.entry(&t.name).or_insert(0);
        for d in &t.deps {
            *indegree.entry(&t.name).or_insert(0) += 1;
            dependents.entry(d).or_default().push(&t.name);
        }
    }
    let mut ready: BTreeSet<&TargetName> = indegree
        .iter()
        .filter(|(_, &n)| n == 0)
        .map(|(&t, _)| t)
        .collect();
    let mut topo: Vec<TargetName> = Vec::with_capacity(map.len());
    while let Some(&name) = ready.iter().next() {
        ready.remove(name);
        topo.push(name.clone());
        if let Some(ds) = dependents.get(name) {
            for &d in ds {
                let n = indegree.get_mut(d).expect("dependent tracked");
                *n -= 1;
                if *n == 0 {
                    ready.insert(d);
                }
            }
        }
    }
    if topo.len() == map.len() {
        return Ok(topo);
    }
    // Everything a target reaches through one or more dependency edges.
    let reach = |from: &TargetName| {
        let mut seen: BTreeSet<&TargetName> = BTreeSet::new();
        let mut stack: Vec<&TargetName> = map[from].deps.iter().collect();
        while let Some(x) = stack.pop() {
            if seen.insert(x) {
                stack.extend(map[x].deps.iter());
            }
        }
        seen
    };
    let reaches: BTreeMap<&TargetName, BTreeSet<&TargetName>> =
        map.keys().map(|k| (k, reach(k))).collect();
    let on_cycle: Vec<&TargetName> = map.keys().filter(|k| reaches[k].contains(k)).collect();
    let named = indegree
        .iter()
        .filter(|(_, &n)| n > 0)
        .map(|(&t, _)| t)
        .filter(|t| on_cycle.iter().any(|c| c == t || reaches[c].contains(t)))
        .cloned()
        .collect();
    Err(BuildError::DependencyCycle(named))
}

fn under_test(targets: Vec<Target>) -> Result<Vec<TargetName>, BuildError> {
    BuildGraph::from_targets(targets).map(|g| g.topo_order().cloned().collect())
}

/// Name `k` of a small pool, so random sets repeat names (duplicates) and
/// tie often (many ready targets at once).
fn pool(k: u8) -> String {
    format!("//p{}:t{}", k / 4, k % 4)
}

/// A random target set: each entry is a name drawn from the pool and its
/// dependencies. A dependency value below 16 names the target declared
/// at that index (modulo the set's size, so cycles and self-deps are
/// common); 16 and up names a pool entry, which may be undeclared.
fn target_set(raw: &[(u8, Vec<u8>)]) -> Vec<Target> {
    let names: Vec<String> = raw.iter().map(|(k, _)| pool(*k)).collect();
    raw.iter()
        .zip(&names)
        .map(|((_, deps), name)| {
            let deps: Vec<String> = deps
                .iter()
                .map(|&d| {
                    if d < 16 {
                        names[d as usize % names.len()].clone()
                    } else {
                        pool(d)
                    }
                })
                .collect();
            t(name, &deps.iter().map(String::as_str).collect::<Vec<_>>())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn from_targets_matches_the_btreeset_kahn_reference(
        raw in proptest::collection::vec(
            (0u8..24, proptest::collection::vec(0u8..20, 0..4)),
            0..10,
        ),
    ) {
        let targets = target_set(&raw);
        prop_assert_eq!(under_test(targets.clone()), reference(targets));
    }
}

#[test]
fn fixed_sets_of_each_outcome_agree() {
    let ok = vec![t("//b:b", &["//a:a"]), t("//a:a", &[]), t("//c:c", &[])];
    let dup = vec![
        t("//b:b", &[]),
        t("//a:a", &[]),
        t("//b:b", &[]),
        t("//a:a", &[]),
    ];
    let dangling = vec![t("//b:b", &["//x:x"]), t("//a:a", &["//y:y"])];
    // b↔c and d's self-loop are cycles and m lies between them; a and e
    // only depend on them, and f is free.
    let cycles = vec![
        t("//a:a", &["//b:b"]),
        t("//b:b", &["//c:c"]),
        t("//c:c", &["//b:b", "//m:m"]),
        t("//m:m", &["//d:d"]),
        t("//d:d", &["//d:d"]),
        t("//e:e", &["//a:a"]),
        t("//f:f", &[]),
    ];
    for set in [ok, dup.clone(), dangling, cycles.clone()] {
        assert_eq!(under_test(set.clone()), reference(set));
    }
    assert_eq!(
        under_test(dup),
        Err(BuildError::DuplicateTarget(n("//b:b")))
    );
    assert_eq!(
        under_test(cycles),
        Err(BuildError::DependencyCycle(vec![
            n("//b:b"),
            n("//c:c"),
            n("//d:d"),
            n("//m:m")
        ]))
    );
}

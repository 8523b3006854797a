//! The target DAG (paper Section 5.1).
//!
//! "Modern build systems such as Buck represent the source code as a
//! directed acyclic graph of *build targets*" — a target declares its
//! sources and the targets it depends on, and every build-system question
//! the paper asks (target hashes, affected sets, conflicts) is a question
//! about this graph. [`BuildGraph`] validates the DAG once at
//! construction (no duplicates, no dangling labels, no cycles) and
//! precomputes a deterministic topological order so that hashing
//! (Algorithm 1) and planning walk dependencies before dependents.

use crate::error::BuildError;
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use sq_vcs::RepoPath;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::str::FromStr;

/// A fully-qualified target label: `//package:name`.
///
/// Labels resolve the way Buck's do: `//a/b:t` is absolute, `:t` is
/// relative to the current package, and `//a/b` abbreviates `//a/b:b`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TargetName {
    package: String,
    name: String,
}

impl TargetName {
    /// Resolve a label against the package it appears in.
    pub fn resolve(label: &str, current_package: &str) -> Result<TargetName, BuildError> {
        let (package, name) = if let Some(rest) = label.strip_prefix("//") {
            match rest.split_once(':') {
                Some((pkg, name)) => (pkg.to_string(), name.to_string()),
                None if rest.is_empty() => return Err(BuildError::InvalidLabel(label.to_string())),
                None => {
                    // `//a/b` abbreviates `//a/b:b`.
                    let last = rest.rsplit('/').next().unwrap_or(rest);
                    (rest.to_string(), last.to_string())
                }
            }
        } else if let Some(name) = label.strip_prefix(':') {
            (current_package.to_string(), name.to_string())
        } else {
            return Err(BuildError::InvalidLabel(label.to_string()));
        };
        if name.is_empty() || name.contains([':', '/']) || package.contains(':') {
            return Err(BuildError::InvalidLabel(label.to_string()));
        }
        Ok(TargetName { package, name })
    }

    /// The package directory (may be empty for the repository root).
    pub fn package(&self) -> &str {
        &self.package
    }

    /// The target's short name (the part after the colon).
    pub fn short_name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for TargetName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "//{}:{}", self.package, self.name)
    }
}

// Debug prints the label form; a struct dump of two `String`s would
// bloat assertion diffs in every consumer test.
impl fmt::Debug for TargetName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TargetName({self})")
    }
}

impl FromStr for TargetName {
    type Err = BuildError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TargetName::resolve(s, "")
    }
}

impl Serialize for TargetName {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

impl<'de> Deserialize<'de> for TargetName {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        TargetName::from_str(&s).map_err(D::Error::custom)
    }
}

/// The kind of rule declaring a target; determines its step pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RuleKind {
    /// A compiled library.
    Library,
    /// A linked, packaged binary.
    Binary,
    /// A test suite.
    Test,
    /// Generated/validated configuration.
    Config,
}

impl RuleKind {
    /// The rule function name as written in BUILD files.
    pub fn rule_name(&self) -> &'static str {
        match self {
            RuleKind::Library => "library",
            RuleKind::Binary => "binary",
            RuleKind::Test => "test",
            RuleKind::Config => "config",
        }
    }

    /// Parse a BUILD-file rule function name.
    pub fn from_rule_name(s: &str) -> Option<RuleKind> {
        match s {
            "library" => Some(RuleKind::Library),
            "binary" => Some(RuleKind::Binary),
            "test" => Some(RuleKind::Test),
            "config" => Some(RuleKind::Config),
            _ => None,
        }
    }
}

impl fmt::Display for RuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.rule_name())
    }
}

/// One build target: a rule instance with sources and dependencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Target {
    /// Fully-qualified name.
    pub name: TargetName,
    /// Rule kind (decides the step pipeline).
    pub kind: RuleKind,
    /// Source files, repository-relative, in declaration order.
    pub srcs: Vec<RepoPath>,
    /// Direct dependencies, in declaration order.
    pub deps: Vec<TargetName>,
}

impl Target {
    /// Convenience constructor.
    pub fn new(
        name: TargetName,
        kind: RuleKind,
        srcs: Vec<RepoPath>,
        deps: Vec<TargetName>,
    ) -> Target {
        Target {
            name,
            kind,
            srcs,
            deps,
        }
    }
}

/// A validated target DAG with a precomputed topological order.
///
/// Targets are stored sorted by name, so a target's index in that order
/// (its *position*) is a dense id: the topological order and each
/// target's dependencies are kept as positions, and Algorithm 1 reads
/// its dependencies' hashes by position instead of by name.
#[derive(Debug, Clone, Default)]
pub struct BuildGraph {
    /// Every target, in name order.
    targets: Vec<Target>,
    /// Positions, dependencies strictly before dependents; ties broken by
    /// name.
    topo: Vec<u32>,
    /// Per position, the positions of the target's dependencies, in
    /// declaration order.
    deps: Vec<Vec<u32>>,
}

impl BuildGraph {
    /// Build and validate a graph from explicit targets.
    ///
    /// Rejects duplicate target names, dependencies on undeclared targets,
    /// and dependency cycles — the snapshot is unbuildable in each case.
    pub fn from_targets(
        targets: impl IntoIterator<Item = Target>,
    ) -> Result<BuildGraph, BuildError> {
        // A stable sort keeps equal names in input order, so the reported
        // duplicate is the first target whose name was already declared.
        let mut indexed: Vec<(usize, Target)> = targets.into_iter().enumerate().collect();
        indexed.sort_by(|(_, a), (_, b)| a.name.cmp(&b.name));
        if let Some((_, dup)) = indexed
            .windows(2)
            .filter(|w| w[0].1.name == w[1].1.name)
            .map(|w| &w[1])
            .min_by_key(|(input_index, _)| *input_index)
        {
            return Err(BuildError::DuplicateTarget(dup.name.clone()));
        }
        let targets: Vec<Target> = indexed.into_iter().map(|(_, t)| t).collect();
        let position = |name: &TargetName| {
            targets
                .binary_search_by(|t| t.name.cmp(name))
                .ok()
                .map(|i| i as u32)
        };
        // Dangling labels, in name order and then declaration order.
        let deps = targets
            .iter()
            .map(|t| {
                t.deps
                    .iter()
                    .map(|d| {
                        position(d).ok_or_else(|| BuildError::UnknownDependency {
                            target: t.name.clone(),
                            dep: d.clone(),
                        })
                    })
                    .collect()
            })
            .collect::<Result<Vec<Vec<u32>>, _>>()?;
        let mut graph = BuildGraph {
            targets,
            topo: Vec::new(),
            deps,
        };
        // Kahn's algorithm with a name-ordered frontier (the smallest
        // ready position first): the order is a pure function of the
        // target set, so two parses of the same snapshot hash and plan
        // identically.
        let n = graph.targets.len();
        let mut unresolved: Vec<u32> = graph.deps.iter().map(|ds| ds.len() as u32).collect();
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, ds) in graph.deps.iter().enumerate() {
            for &d in ds {
                dependents[d as usize].push(i as u32);
            }
        }
        let mut ready: BinaryHeap<Reverse<u32>> = (0..n as u32)
            .filter(|&i| unresolved[i as usize] == 0)
            .map(Reverse)
            .collect();
        let mut topo: Vec<u32> = Vec::with_capacity(n);
        while let Some(Reverse(i)) = ready.pop() {
            topo.push(i);
            for &j in &dependents[i as usize] {
                unresolved[j as usize] -= 1;
                if unresolved[j as usize] == 0 {
                    ready.push(Reverse(j));
                }
            }
        }
        if topo.len() != n {
            return Err(BuildError::DependencyCycle(
                graph.cycle_members(&unresolved, &dependents),
            ));
        }
        graph.topo = topo;
        Ok(graph)
    }

    /// The targets Kahn left stuck (`unresolved` > 0) that lie on a cycle
    /// or between two cycles, in name order. The stuck set also holds
    /// every target that merely depends on a cycle; those are peeled from
    /// the sink side: a stuck target no remaining stuck target depends
    /// on goes, until none is left to peel.
    fn cycle_members(&self, unresolved: &[u32], dependents: &[Vec<u32>]) -> Vec<TargetName> {
        let stuck = |i: usize| unresolved[i] > 0;
        let n = self.targets.len();
        let mut stuck_dependents: Vec<u32> = (0..n)
            .map(|i| {
                if stuck(i) {
                    dependents[i].iter().filter(|&&j| stuck(j as usize)).count() as u32
                } else {
                    0
                }
            })
            .collect();
        let mut peeled = vec![false; n];
        let mut sinks: Vec<usize> = (0..n)
            .filter(|&i| stuck(i) && stuck_dependents[i] == 0)
            .collect();
        while let Some(i) = sinks.pop() {
            peeled[i] = true;
            for &d in &self.deps[i] {
                let d = d as usize;
                if stuck(d) {
                    stuck_dependents[d] -= 1;
                    if stuck_dependents[d] == 0 {
                        sinks.push(d);
                    }
                }
            }
        }
        (0..n)
            .filter(|&i| stuck(i) && !peeled[i])
            .map(|i| self.targets[i].name.clone())
            .collect()
    }

    /// Look up a target by name.
    pub fn get(&self, name: &TargetName) -> Option<&Target> {
        self.targets
            .binary_search_by(|t| t.name.cmp(name))
            .ok()
            .map(|i| &self.targets[i])
    }

    /// Number of targets.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Target names in name order.
    pub fn names(&self) -> impl Iterator<Item = &TargetName> {
        self.targets.iter().map(|t| &t.name)
    }

    /// Targets in name order; `as_slice` indexes them by position.
    pub fn targets(&self) -> std::slice::Iter<'_, Target> {
        self.targets.iter()
    }

    /// Target names in topological order (dependencies first).
    pub fn topo_order(&self) -> impl Iterator<Item = &TargetName> {
        self.topo.iter().map(|&i| &self.targets[i as usize].name)
    }

    /// Positions in topological order (dependencies first).
    pub(crate) fn topo_positions(&self) -> &[u32] {
        &self.topo
    }

    /// The positions of target `i`'s dependencies, in declaration order.
    pub(crate) fn deps_of(&self, i: usize) -> &[u32] {
        &self.deps[i]
    }

    /// True iff both graphs declare the same targets with the same rule
    /// kinds, sources and dependencies — the *structure* Algorithm 1's
    /// fast path keys on; file contents are deliberately not compared.
    pub fn same_structure(&self, other: &BuildGraph) -> bool {
        self.targets == other.targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> TargetName {
        TargetName::from_str(s).unwrap()
    }

    fn p(s: &str) -> RepoPath {
        RepoPath::new(s).unwrap()
    }

    fn t(name: &str, deps: &[&str]) -> Target {
        Target::new(
            n(name),
            RuleKind::Library,
            vec![],
            deps.iter().map(|d| n(d)).collect(),
        )
    }

    #[test]
    fn label_resolution() {
        let abs = TargetName::resolve("//a/b:t", "ignored").unwrap();
        assert_eq!(abs.package(), "a/b");
        assert_eq!(abs.short_name(), "t");
        assert_eq!(abs.to_string(), "//a/b:t");
        let rel = TargetName::resolve(":t", "a/b").unwrap();
        assert_eq!(rel, abs);
        let short = TargetName::resolve("//a/b", "").unwrap();
        assert_eq!(short.short_name(), "b");
        assert_eq!(short, TargetName::resolve("//a/b:b", "").unwrap());
    }

    #[test]
    fn bad_labels_rejected() {
        for bad in ["", "plain", "//", "//a:", "//a:b:c", "//a:b/c", ":"] {
            assert!(
                TargetName::resolve(bad, "pkg").is_err(),
                "label {bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn serde_roundtrips_via_label_form() {
        let name = n("//a/b:t");
        let json = serde_json::to_string(&name).unwrap();
        assert_eq!(json, "\"//a/b:t\"");
        let back: TargetName = serde_json::from_str(&json).unwrap();
        assert_eq!(back, name);
        assert!(serde_json::from_str::<TargetName>("\"junk\"").is_err());
    }

    #[test]
    fn rule_kind_roundtrip() {
        for kind in [
            RuleKind::Library,
            RuleKind::Binary,
            RuleKind::Test,
            RuleKind::Config,
        ] {
            assert_eq!(RuleKind::from_rule_name(kind.rule_name()), Some(kind));
        }
        assert_eq!(RuleKind::from_rule_name("genrule"), None);
    }

    #[test]
    fn topo_orders_deps_first_and_deterministically() {
        let g = BuildGraph::from_targets([
            t("//c:c", &["//b:b"]),
            t("//b:b", &["//a:a"]),
            t("//a:a", &[]),
            t("//d:d", &[]),
        ])
        .unwrap();
        let order: Vec<String> = g.topo_order().map(|x| x.to_string()).collect();
        let pos = |s: &str| order.iter().position(|x| x == s).unwrap();
        assert!(pos("//a:a") < pos("//b:b"));
        assert!(pos("//b:b") < pos("//c:c"));
        // Deterministic: rebuilding from a permuted list gives the same order.
        let g2 = BuildGraph::from_targets([
            t("//d:d", &[]),
            t("//a:a", &[]),
            t("//b:b", &["//a:a"]),
            t("//c:c", &["//b:b"]),
        ])
        .unwrap();
        let order2: Vec<String> = g2.topo_order().map(|x| x.to_string()).collect();
        assert_eq!(order, order2);
        assert!(g.same_structure(&g2));
    }

    #[test]
    fn duplicate_dangling_and_cycle_rejected() {
        assert!(matches!(
            BuildGraph::from_targets([t("//a:a", &[]), t("//a:a", &[])]),
            Err(BuildError::DuplicateTarget(_))
        ));
        assert!(matches!(
            BuildGraph::from_targets([t("//a:a", &["//nope:nope"])]),
            Err(BuildError::UnknownDependency { .. })
        ));
        assert!(matches!(
            BuildGraph::from_targets([t("//a:a", &["//b:b"]), t("//b:b", &["//a:a"])]),
            Err(BuildError::DependencyCycle(_))
        ));
    }

    #[test]
    fn a_cycle_names_its_members_not_its_dependents() {
        assert_eq!(
            BuildGraph::from_targets([
                t("//a:a", &["//b:b"]),
                t("//b:b", &["//a:a"]),
                t("//c:c", &["//a:a"]),
            ])
            .unwrap_err(),
            BuildError::DependencyCycle(vec![n("//a:a"), n("//b:b")])
        );
        // One self-dependency under a chain of 200 dependents.
        let mut targets = vec![t("//loop:loop", &["//loop:loop"])];
        targets.push(t("//up:u0", &["//loop:loop"]));
        for i in 1..200 {
            targets.push(t(&format!("//up:u{i}"), &[&format!("//up:u{}", i - 1)]));
        }
        assert_eq!(
            BuildGraph::from_targets(targets).unwrap_err(),
            BuildError::DependencyCycle(vec![n("//loop:loop")])
        );
    }

    #[test]
    fn structure_ignores_nothing_it_should_track() {
        let base = || {
            vec![Target::new(
                n("//a:a"),
                RuleKind::Library,
                vec![p("a/s.rs")],
                vec![],
            )]
        };
        let g1 = BuildGraph::from_targets(base()).unwrap();
        // Different kind.
        let mut other = base();
        other[0].kind = RuleKind::Binary;
        assert!(!g1.same_structure(&BuildGraph::from_targets(other).unwrap()));
        // Different srcs.
        let mut other = base();
        other[0].srcs.push(p("a/extra.rs"));
        assert!(!g1.same_structure(&BuildGraph::from_targets(other).unwrap()));
        // Identical.
        assert!(g1.same_structure(&BuildGraph::from_targets(base()).unwrap()));
    }

    #[test]
    fn empty_graph() {
        let g = BuildGraph::from_targets([]).unwrap();
        assert_eq!(g.len(), 0);
        assert_eq!(g.topo_order().count(), 0);
    }
}

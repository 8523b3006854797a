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
use std::collections::{BTreeMap, BTreeSet, HashMap};
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
#[derive(Debug, Clone, Default)]
pub struct BuildGraph {
    targets: BTreeMap<TargetName, Target>,
    /// Dependencies strictly before dependents; ties broken by name.
    topo: Vec<TargetName>,
}

impl BuildGraph {
    /// Build and validate a graph from explicit targets.
    ///
    /// Rejects duplicate target names, dependencies on undeclared targets,
    /// and dependency cycles — the snapshot is unbuildable in each case.
    pub fn from_targets(
        targets: impl IntoIterator<Item = Target>,
    ) -> Result<BuildGraph, BuildError> {
        let mut map: BTreeMap<TargetName, Target> = BTreeMap::new();
        for t in targets {
            if map.contains_key(&t.name) {
                return Err(BuildError::DuplicateTarget(t.name));
            }
            map.insert(t.name.clone(), t);
        }
        // Dangling labels.
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
        // Kahn's algorithm with a name-ordered frontier: the order is a
        // pure function of the target set, so two parses of the same
        // snapshot hash and plan identically.
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
        if topo.len() != map.len() {
            let stuck: Vec<TargetName> = indegree
                .iter()
                .filter(|(_, &n)| n > 0)
                .map(|(&t, _)| t.clone())
                .collect();
            return Err(BuildError::DependencyCycle(stuck));
        }
        Ok(BuildGraph { targets: map, topo })
    }

    /// Look up a target by name.
    pub fn get(&self, name: &TargetName) -> Option<&Target> {
        self.targets.get(name)
    }

    /// Number of targets.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Target names in name order.
    pub fn names(&self) -> impl Iterator<Item = &TargetName> {
        self.targets.keys()
    }

    /// Targets in name order.
    pub fn targets(&self) -> impl Iterator<Item = &Target> {
        self.targets.values()
    }

    /// Target names in topological order (dependencies first).
    pub fn topo_order(&self) -> impl Iterator<Item = &TargetName> {
        self.topo.iter()
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

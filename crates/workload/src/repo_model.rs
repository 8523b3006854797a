//! Materialized monorepos: a real `sq-vcs` repository for a workload.
//!
//! The statistical workload is enough for the discrete-event
//! simulations, but end-to-end tests and examples want the full stack:
//! actual BUILD files, actual patches, the actual conflict analyzer.
//! This module maps each logical part to a package (directory with a
//! BUILD file and sources) and renders each [`ChangeSpec`] as a concrete
//! [`Patch`]:
//!
//! * a change edits one source file per touched part (which file depends
//!   on the change id, so same-part changes usually hit *different*
//!   files — a semantic conflict the textual merge cannot see);
//! * a graph-altering change also adds a new source to the package's
//!   BUILD file, changing the build graph's structure (disabling the
//!   analyzer's fast path, as in the paper's 7.9% iOS statistic).

use crate::change::{ChangeSpec, PartId};
use crate::params::WorkloadParams;
use sq_vcs::{FileOp, Patch, RepoPath, Repository};

/// Source files per package.
const SRCS_PER_PACKAGE: u64 = 4;
/// Dependency fan-in: every k-th package depends on an earlier one,
/// building a layered DAG (deep, like the paper's iOS graph).
const DEP_STRIDE: usize = 3;

/// A workload-backed concrete monorepo.
#[derive(Debug, Clone)]
pub struct MaterializedRepo {
    /// The repository, initialized with one package per logical part.
    pub repo: Repository,
    /// Package directory per part index.
    packages: Vec<String>,
    /// The pristine BUILD text per package (graph-altering patches are
    /// rendered against this baseline).
    build_texts: Vec<String>,
}

impl MaterializedRepo {
    /// Generate the repository for `params` (one package per part).
    pub fn generate(params: &WorkloadParams) -> Result<MaterializedRepo, String> {
        params.validate()?;
        let mut files: Vec<(String, String)> = Vec::new();
        let mut packages = Vec::with_capacity(params.n_parts);
        let mut build_texts = Vec::with_capacity(params.n_parts);
        for part in 0..params.n_parts {
            let pkg = format!("parts/p{part:04}");
            let mut srcs: Vec<String> = Vec::new();
            for s in 0..SRCS_PER_PACKAGE {
                let fname = format!("src_{s}.rs");
                files.push((
                    format!("{pkg}/{fname}"),
                    format!("// part {part} source {s}\npub fn f{s}() {{}}\n"),
                ));
                srcs.push(format!("\"{fname}\""));
            }
            let dep = if part >= DEP_STRIDE && part % DEP_STRIDE == 0 {
                let target = part - DEP_STRIDE;
                format!(", deps = [\"//parts/p{target:04}:p{target:04}\"]")
            } else {
                String::new()
            };
            let build = format!(
                "library(name = \"p{part:04}\", srcs = [{}]{dep})\n",
                srcs.join(", ")
            );
            files.push((format!("{pkg}/BUILD"), build.clone()));
            packages.push(pkg);
            build_texts.push(build);
        }
        let repo = Repository::init(files.iter().map(|(p, c)| (p.as_str(), c.as_str())))
            .map_err(|e| e.to_string())?;
        Ok(MaterializedRepo {
            repo,
            packages,
            build_texts,
        })
    }

    /// The package directory backing a part.
    pub fn package_of(&self, part: PartId) -> &str {
        &self.packages[part.0 as usize % self.packages.len()]
    }

    /// Render a change as a concrete patch against the pristine layout.
    pub fn patch_for(&self, change: &ChangeSpec) -> Patch {
        let mut ops: Vec<FileOp> = Vec::new();
        for part in &change.parts {
            let pkg = self.package_of(*part);
            let file = (change.id.0 + part.0 as u64) % SRCS_PER_PACKAGE;
            let path =
                RepoPath::new(format!("{pkg}/src_{file}.rs")).expect("generated paths are valid");
            ops.push(FileOp::Write {
                path,
                content: format!(
                    "// part {} source {file}\n// edited by {}\npub fn f{file}() {{ /* rev {} */ }}\n",
                    part.0, change.id, change.id.0
                ),
            });
        }
        if change.alters_build_graph {
            if let Some(part) = change.parts.first() {
                let idx = part.0 as usize % self.packages.len();
                let pkg = &self.packages[idx];
                let new_src = format!("gen_{}.rs", change.id.0);
                ops.push(FileOp::Write {
                    path: RepoPath::new(format!("{pkg}/{new_src}")).expect("valid"),
                    content: format!("// generated by {}\npub fn g() {{}}\n", change.id),
                });
                // Rewrite the BUILD file with the extra source appended —
                // a structural build-graph change.
                let base = &self.build_texts[idx];
                let amended = base.replacen("srcs = [", &format!("srcs = [\"{new_src}\", "), 1);
                ops.push(FileOp::Write {
                    path: RepoPath::new(format!("{pkg}/BUILD")).expect("valid"),
                    content: amended,
                });
            }
        }
        Patch::from_ops(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::WorkloadBuilder;
    use sq_build::affected::SnapshotAnalysis;
    use sq_build::conflict::{changes_conflict, ConflictVerdict};

    fn small_params() -> WorkloadParams {
        let mut p = WorkloadParams::ios();
        p.n_parts = 12; // keep the materialized repo small for tests
        p
    }

    #[test]
    fn generated_repo_parses_into_a_build_graph() {
        let m = MaterializedRepo::generate(&small_params()).unwrap();
        let tree = m.repo.head_tree().unwrap();
        let analysis = SnapshotAnalysis::analyze(&tree, m.repo.store()).unwrap();
        assert_eq!(analysis.graph.len(), 12);
        assert!(
            analysis.graph.targets().any(|t| !t.deps.is_empty()),
            "layered deps expected"
        );
    }

    #[test]
    fn patches_apply_cleanly_and_affect_the_right_targets() {
        let m = MaterializedRepo::generate(&small_params()).unwrap();
        let w = WorkloadBuilder::new(small_params())
            .seed(3)
            .n_changes(20)
            .build()
            .unwrap();
        let mut repo = m.repo.clone();
        let tree = repo.head_tree().unwrap();
        let base = SnapshotAnalysis::analyze(&tree, repo.store()).unwrap();
        for c in &w.changes[..10] {
            let patch = m.patch_for(c);
            let new_tree = patch.apply(&tree, repo.store_mut()).unwrap();
            let analysis = SnapshotAnalysis::analyze(&new_tree, repo.store()).unwrap();
            let delta = sq_build::AffectedSet::between(&base, &analysis);
            assert!(
                !delta.is_empty(),
                "change {} must affect at least one target",
                c.id
            );
        }
    }

    #[test]
    fn same_part_changes_conflict_distinct_part_changes_do_not() {
        let m = MaterializedRepo::generate(&small_params()).unwrap();
        let w = WorkloadBuilder::new(small_params())
            .seed(11)
            .n_changes(200)
            .build()
            .unwrap();
        // Find a same-part pair and a disjoint-part pair with no
        // graph-altering members (fast-path regime).
        let plain: Vec<_> = w
            .changes
            .iter()
            .filter(|c| !c.alters_build_graph && c.parts.len() == 1)
            .collect();
        let same = plain.iter().enumerate().find_map(|(i, a)| {
            plain[i + 1..]
                .iter()
                .find(|b| a.parts == b.parts && (a.id.0 + b.id.0) % SRCS_PER_PACKAGE != 0)
                .map(|b| (*a, *b))
        });
        let (a, b) = same.expect("workload contains a same-part pair");
        let mut repo = m.repo.clone();
        let tree = repo.head_tree().unwrap();
        let verdict =
            changes_conflict(&tree, repo.store_mut(), &m.patch_for(a), &m.patch_for(b)).unwrap();
        assert!(verdict.is_conflict(), "same-part pair must conflict");

        // Disjoint *packages* that are also not dependency-related: pick
        // two adjacent part ids not linked by the DEP_STRIDE chain.
        let disjoint = plain.iter().enumerate().find_map(|(i, x)| {
            plain[i + 1..]
                .iter()
                .find(|y| {
                    let px = x.parts[0].0 as usize % 12;
                    let py = y.parts[0].0 as usize % 12;
                    px != py && !px.is_multiple_of(DEP_STRIDE) && !py.is_multiple_of(DEP_STRIDE)
                })
                .map(|y| (*x, *y))
        });
        if let Some((x, y)) = disjoint {
            let verdict =
                changes_conflict(&tree, repo.store_mut(), &m.patch_for(x), &m.patch_for(y))
                    .unwrap();
            assert_eq!(verdict, ConflictVerdict::Independent);
        }
    }

    #[test]
    fn graph_altering_patch_changes_structure() {
        let m = MaterializedRepo::generate(&small_params()).unwrap();
        let w = WorkloadBuilder::new(small_params())
            .seed(7)
            .n_changes(600)
            .build()
            .unwrap();
        let change = w
            .changes
            .iter()
            .find(|c| c.alters_build_graph)
            .expect("some change alters the graph");
        let mut repo = m.repo.clone();
        let tree = repo.head_tree().unwrap();
        let base = SnapshotAnalysis::analyze(&tree, repo.store()).unwrap();
        let new_tree = m.patch_for(change).apply(&tree, repo.store_mut()).unwrap();
        let after = SnapshotAnalysis::analyze(&new_tree, repo.store()).unwrap();
        assert!(!base.same_graph_structure(&after));
    }

    #[test]
    fn patches_commit_through_the_repository() {
        let m = MaterializedRepo::generate(&small_params()).unwrap();
        let w = WorkloadBuilder::new(small_params())
            .seed(13)
            .n_changes(5)
            .build()
            .unwrap();
        let mut repo = m.repo.clone();
        for c in &w.changes {
            let patch = m.patch_for(c);
            let meta = sq_vcs::CommitMeta::new(
                format!("dev{}", c.developer.0),
                format!("land {}", c.id),
                c.submit_time.as_micros(),
            );
            repo.commit_patch(sq_vcs::repo::MAINLINE, &patch, meta)
                .unwrap();
        }
        assert_eq!(repo.commit_count(), 6); // root + 5
    }

    /// What landing a change adds to the object store follows the change,
    /// not the repository: on the benchmark's 300-package layout a
    /// one-file commit stores its blob, the commit, and one directory
    /// object per level (root, `parts`, the package) — the 300-entry
    /// `parts` directory is nearly all of the bytes.
    #[test]
    fn a_one_package_commit_on_the_300_package_repository_stores_its_spine() {
        let mut params = WorkloadParams::ios();
        params.n_parts = 300;
        let mut repo = MaterializedRepo::generate(&params).unwrap().repo;
        assert_eq!(repo.head_tree().unwrap().iter().count(), 1_500);
        for (i, file) in ["parts/p0007/src_2.rs", "parts/p0299/BUILD"]
            .iter()
            .enumerate()
        {
            let (objects, bytes) = (repo.store().len(), repo.store().total_bytes());
            let content = format!("// edit {i}\n");
            repo.commit_patch(
                sq_vcs::repo::MAINLINE,
                &Patch::write(RepoPath::new(file).unwrap(), content),
                sq_vcs::CommitMeta::new("dev", "one file", i as u64),
            )
            .unwrap();
            assert_eq!(repo.store().len() - objects, 1 + 1 + 3, "{file}");
            let added = repo.store().total_bytes() - bytes;
            assert!(added <= 32 * 1024, "{file} added {added} bytes");
        }
    }
}

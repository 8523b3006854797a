//! BUILD-file parsing (paper Section 5.1).
//!
//! Each package directory declares its targets in a `BUILD` file written
//! in a small Starlark-like subset: a sequence of rule calls
//!
//! ```text
//! library(
//!     name = "util",
//!     srcs = ["util.rs", "helpers.rs"],  # package-relative
//!     deps = ["//base:log", ":strings"],
//! )
//! ```
//!
//! [`parse_workspace`] reads every `BUILD` file in a snapshot and returns
//! the validated [`BuildGraph`]. Parsing is hermetic: it consumes only the
//! `Tree` and `ObjectStore`, so two calls on equal snapshots yield
//! structurally equal graphs — which is what lets the conflict analyzer
//! compare graphs across speculative merges (Section 5.2).

use crate::error::BuildError;
use crate::graph::{BuildGraph, RuleKind, Target, TargetName};
use crate::hash::Hashed;
use sq_vcs::{Mark, ObjectId, ObjectStore, RepoPath, Tree, WeakTree};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Parse all BUILD files in the snapshot into a validated target graph.
///
/// The tree's root keeps the graph ([`Workspace`]), so a later call over
/// the same tree parses nothing. A call over a tree written from one that
/// keeps it (while that tree lives) visits only the BUILD files of the
/// directories the write changed, found by [`Tree::named_changes`], and
/// takes every other package from the kept workspace; it builds a graph
/// only if a BUILD file was added, removed or rewritten. What was kept is
/// used only while the store provably holds every BUILD blob a parse from
/// nothing would read ([`Mark`]); else the parse starts from nothing.
pub fn parse_workspace(tree: &Tree, store: &ObjectStore) -> Result<BuildGraph, BuildError> {
    let root = tree.root_slot();
    if let Some(here) = root.get::<Workspace>().filter(|w| holds(store, &w.mark)) {
        return Ok(here.graph.clone());
    }
    // The workspace of the tree this one was written from, while that
    // tree lives and the store holds its BUILD blobs; else nothing's.
    let stale = root.stale::<Workspace>();
    let was = stale.as_deref().filter(|w| holds(store, &w.mark));
    let (was, base_tree) = match was.and_then(|w| Some((w, w.tree.upgrade()?))) {
        Some((was, tree)) => (Some(was), tree),
        None => (None, Tree::new()),
    };
    let changes = tree.named_changes(&base_tree, "BUILD");
    // The packages of the directories that changed.
    let fresh: Vec<&str> = changes
        .iter()
        .filter(|(_, now, _)| now.is_some())
        .inspect(|_| crate::work::package_visited())
        .map(|(path, ..)| path.parent().unwrap_or(""))
        .collect();
    let unchanged = changes
        .iter()
        .all(|(_, now, then)| now.is_some() && now == then);
    let (packages, graph, mark) = match was.filter(|_| unchanged) {
        // No BUILD file changed: the same packages and graph. The mark is
        // taken anew, so it names the store's frozen part as it is.
        Some(was) => {
            let mark = mark_of(store, was.mark.loose());
            (Arc::clone(&was.packages), was.graph.clone(), mark)
        }
        None => {
            let old: &[Arc<Package>] = was.map_or(&[], |w| &w.packages);
            let mut packages: Vec<Arc<Package>> = Vec::with_capacity(old.len() + changes.len());
            let mut kept = old.iter().peekable();
            let mut parsed = Vec::new();
            for (path, now, _) in changes {
                // Every package before this file is kept as it was.
                while let Some(p) = kept.next_if(|p| p.path < *path) {
                    packages.push(Arc::clone(p));
                }
                let was = kept.next_if(|p| p.path == *path);
                let Some(blob) = now else { continue };
                packages.push(match was.filter(|p| p.build == blob) {
                    Some(same) => Arc::clone(same),
                    None => {
                        parsed.push(blob);
                        Arc::new(Package::parse(path, blob, store)?)
                    }
                });
            }
            packages.extend(kept.cloned());
            crate::work::graph_built();
            let targets = packages.iter().flat_map(|p| p.targets.iter().cloned());
            let graph = BuildGraph::from_targets(targets)?;
            let mark = match was {
                Some(was) => mark_of(store, was.mark.loose().iter().chain(&parsed)),
                None => mark_of(store, packages.iter().map(|p| &p.build)),
            };
            (packages.into(), graph, mark)
        }
    };
    let workspace = Workspace {
        tree: tree.downgrade(),
        packages,
        fresh: was.map(|_| fresh.iter().map(|p| graph.package_run(p)).collect()),
        graph,
        mark,
        hashed: OnceLock::new(),
    };
    // A concurrent call may have kept a graph of the same targets first.
    Ok(root.get_or_keep(|| workspace).graph.clone())
}

/// True if `store` provably holds what `mark` was taken over.
pub(crate) fn holds(store: &ObjectStore, mark: &Mark) -> bool {
    crate::work::looked_up(mark.loose().len());
    store.holds(mark)
}

/// A mark of `ids` on `store`.
pub(crate) fn mark_of<'a>(
    store: &ObjectStore,
    ids: impl IntoIterator<Item = &'a ObjectId>,
) -> Mark {
    store.mark(ids.into_iter().inspect(|_| crate::work::looked_up(1)))
}

/// One BUILD file and the targets it declares. A package holds nothing of
/// the tree it was parsed in, so the workspaces of every tree whose BUILD
/// file at its path is the same blob share it.
pub(crate) struct Package {
    build: ObjectId,
    path: Arc<RepoPath>,
    /// In declaration order, which decides the duplicate a graph reports.
    targets: Arc<[Target]>,
}

impl Package {
    fn parse(
        path: &Arc<RepoPath>,
        blob: ObjectId,
        store: &ObjectStore,
    ) -> Result<Package, BuildError> {
        crate::work::looked_up(1);
        let bytes = store
            .get(&blob)
            .ok_or_else(|| BuildError::MissingObject(blob.to_hex()))?;
        // Borrowed unless the blob is not UTF-8; tokens borrow from it.
        let text = String::from_utf8_lossy(bytes);
        crate::work::build_parsed();
        let package = path.parent().unwrap_or("");
        Ok(Package {
            build: blob,
            path: Arc::clone(path),
            targets: parse_build_file(path.as_str(), package, &text)?.into(),
        })
    }
}

/// What the root directory of a tree keeps of its analysis, in the
/// tree's [`sq_vcs::tree::Derived`] root slot: each package, the graph,
/// and once hashed over the tree as it is, the hashes ([`Hashed`]). A
/// write anywhere leaves it stale, and the next [`parse_workspace`] and
/// [`crate::TargetHashes::compute`] over the written tree start from it.
pub(crate) struct Workspace {
    /// The tree parsed: held weakly, as the workspace lives in its root.
    tree: WeakTree,
    /// Each BUILD file's, in path order.
    packages: Arc<[Arc<Package>]>,
    /// The positions of the targets of each package whose directory
    /// differs from the tree this one was written from, or `None` for
    /// every target.
    pub(crate) fresh: Option<Vec<Range<usize>>>,
    pub(crate) graph: BuildGraph,
    /// Taken over every package's BUILD blob.
    mark: Mark,
    pub(crate) hashed: OnceLock<Hashed>,
}

/// Parse one BUILD file's rule calls into targets of `package`.
fn parse_build_file(path: &str, package: &str, text: &str) -> Result<Vec<Target>, BuildError> {
    let tokens = tokenize(path, text)?;
    let mut p = Parser {
        path,
        package,
        tokens: &tokens,
        pos: 0,
    };
    let mut targets = Vec::new();
    while !p.at_end() {
        targets.push(p.rule()?);
    }
    Ok(targets)
}

/// A token; identifiers and string literals borrow the file's text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token<'a> {
    Ident(&'a str),
    Str(&'a str),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Equals,
}

impl Token<'_> {
    fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("identifier '{s}'"),
            Token::Str(s) => format!("string {s:?}"),
            Token::LParen => "'('".into(),
            Token::RParen => "')'".into(),
            Token::LBracket => "'['".into(),
            Token::RBracket => "']'".into(),
            Token::Comma => "','".into(),
            Token::Equals => "'='".into(),
        }
    }
}

/// Split `text` into tokens. Every token but whitespace is ASCII, so the
/// scan walks bytes and decodes a `char` only to skip non-ASCII
/// whitespace or to name an unexpected character.
fn tokenize<'a>(path: &str, text: &'a str) -> Result<Vec<Token<'a>>, BuildError> {
    let err = |message: String| BuildError::Parse {
        path: path.to_string(),
        message,
    };
    let bytes = text.as_bytes();
    // The length of the run at `from` of bytes that `keep` accepts.
    let run = |from: usize, keep: fn(u8) -> bool| {
        bytes[from..]
            .iter()
            .position(|&b| !keep(b))
            .unwrap_or(bytes.len() - from)
    };
    // BUILD files run about four bytes a token.
    let mut tokens = Vec::with_capacity(bytes.len() / 4);
    let mut i = 0;
    while i < bytes.len() {
        let token = match bytes[i] {
            b'#' => {
                // Comment to end of line.
                i += run(i, |b| b != b'\n') + 1;
                continue;
            }
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b'(' => Token::LParen,
            b')' => Token::RParen,
            b'[' => Token::LBracket,
            b']' => Token::RBracket,
            b',' => Token::Comma,
            b'=' => Token::Equals,
            b'"' => {
                let start = i + 1;
                let end = start + run(start, |b| b != b'"' && b != b'\n');
                if bytes.get(end) != Some(&b'"') {
                    return Err(err("unterminated string literal".into()));
                }
                tokens.push(Token::Str(&text[start..end]));
                i = end + 1;
                continue;
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let end = i + run(i, |b| b.is_ascii_alphanumeric() || b == b'_');
                tokens.push(Token::Ident(&text[i..end]));
                i = end;
                continue;
            }
            _ => {
                let c = text[i..]
                    .chars()
                    .next()
                    .expect("the scan stops on char boundaries");
                if c.is_whitespace() {
                    i += c.len_utf8();
                    continue;
                }
                return Err(err(format!("unexpected character '{c}'")));
            }
        };
        tokens.push(token);
        i += 1;
    }
    Ok(tokens)
}

struct Parser<'t, 'a> {
    path: &'a str,
    package: &'a str,
    tokens: &'t [Token<'a>],
    pos: usize,
}

/// An attribute value: a string or a list of strings.
enum Value<'a> {
    Str(&'a str),
    List(Vec<&'a str>),
}

impl<'a> Parser<'_, 'a> {
    fn err(&self, message: String) -> BuildError {
        BuildError::Parse {
            path: self.path.to_string(),
            message,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn next(&mut self, wanted: &str) -> Result<Token<'a>, BuildError> {
        let t = *self
            .tokens
            .get(self.pos)
            .ok_or_else(|| self.err(format!("expected {wanted}, found end of file")))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, token: Token) -> Result<(), BuildError> {
        let found = self.next(&token.describe())?;
        if found == token {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                token.describe(),
                found.describe()
            )))
        }
    }

    fn peek_is(&self, token: Token) -> bool {
        self.tokens.get(self.pos) == Some(&token)
    }

    /// `kind ( name = "...", srcs = [...], deps = [...] )`
    fn rule(&mut self) -> Result<Target, BuildError> {
        let kind = match self.next("a rule name")? {
            Token::Ident(s) => RuleKind::from_rule_name(s)
                .ok_or_else(|| self.err(format!("unknown rule kind '{s}'")))?,
            other => {
                return Err(self.err(format!("expected a rule name, found {}", other.describe())))
            }
        };
        self.expect(Token::LParen)?;
        let mut name: Option<&str> = None;
        let mut srcs: Vec<&str> = Vec::new();
        let mut deps: Vec<&str> = Vec::new();
        while !self.peek_is(Token::RParen) {
            let attr = match self.next("an attribute name")? {
                Token::Ident(s) => s,
                other => {
                    return Err(
                        self.err(format!("expected an attribute, found {}", other.describe()))
                    )
                }
            };
            self.expect(Token::Equals)?;
            let value = self.value()?;
            match (attr, value) {
                ("name", Value::Str(s)) => name = Some(s),
                ("name", Value::List(_)) => return Err(self.err("'name' must be a string".into())),
                ("srcs", Value::List(l)) => srcs = l,
                ("srcs", Value::Str(_)) => return Err(self.err("'srcs' must be a list".into())),
                ("deps", Value::List(l)) => deps = l,
                ("deps", Value::Str(_)) => return Err(self.err("'deps' must be a list".into())),
                // Unknown attributes (visibility, tags, ...) are tolerated
                // and ignored, as in Buck.
                _ => {}
            }
            if self.peek_is(Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect(Token::RParen)?;
        let name = name.ok_or_else(|| self.err("rule is missing the 'name' attribute".into()))?;
        let target_name = TargetName::resolve(&format!(":{name}"), self.package)?;
        let mut full = String::new();
        let srcs = srcs
            .iter()
            .map(|&s| {
                let path = if self.package.is_empty() {
                    s
                } else {
                    full.clear();
                    full.push_str(self.package);
                    full.push('/');
                    full.push_str(s);
                    &full
                };
                RepoPath::new(path).map_err(|_| self.err(format!("invalid source path '{s}'")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let deps = deps
            .iter()
            .map(|d| TargetName::resolve(d, self.package))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Target::new(target_name, kind, srcs, deps))
    }

    fn value(&mut self) -> Result<Value<'a>, BuildError> {
        match self.next("a value")? {
            Token::Str(s) => Ok(Value::Str(s)),
            Token::LBracket => {
                let mut items = Vec::new();
                while !self.peek_is(Token::RBracket) {
                    match self.next("a string")? {
                        Token::Str(s) => items.push(s),
                        other => {
                            return Err(self.err(format!(
                                "expected a string in list, found {}",
                                other.describe()
                            )))
                        }
                    }
                    if self.peek_is(Token::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.expect(Token::RBracket)?;
                Ok(Value::List(items))
            }
            other => Err(self.err(format!("expected a value, found {}", other.describe()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn workspace(files: &[(&str, &str)]) -> (Tree, ObjectStore) {
        let mut store = ObjectStore::new();
        let mut tree = Tree::new();
        for (p, c) in files {
            let id = store.put(c.as_bytes().to_vec());
            tree.insert(RepoPath::new(p).unwrap(), id).unwrap();
        }
        (tree, store)
    }

    #[test]
    fn parses_a_small_workspace() {
        let (tree, store) = workspace(&[
            (
                "base/BUILD",
                "library(name = \"log\", srcs = [\"log.rs\"])\n",
            ),
            (
                "app/BUILD",
                "binary(\n  name = \"app\",\n  srcs = [\"main.rs\"],\n  deps = [\"//base:log\"],\n)\n",
            ),
            ("base/log.rs", "fn log() {}"),
            ("app/main.rs", "fn main() {}"),
        ]);
        let g = parse_workspace(&tree, &store).unwrap();
        assert_eq!(g.len(), 2);
        let app = g.get(&TargetName::from_str("//app:app").unwrap()).unwrap();
        assert_eq!(app.kind, RuleKind::Binary);
        assert_eq!(app.srcs, vec![RepoPath::new("app/main.rs").unwrap()]);
        assert_eq!(app.deps, vec![TargetName::from_str("//base:log").unwrap()]);
    }

    #[test]
    fn relative_deps_comments_and_unknown_attrs() {
        let (tree, store) = workspace(&[(
            "pkg/BUILD",
            "# two targets, one relative dep\n\
             library(name = \"a\", srcs = [\"a.rs\"], visibility = [\"PUBLIC\"])\n\
             test(name = \"a_test\", srcs = [\"a_test.rs\"], deps = [\":a\"], size = \"small\")\n",
        )]);
        let g = parse_workspace(&tree, &store).unwrap();
        let t = g
            .get(&TargetName::from_str("//pkg:a_test").unwrap())
            .unwrap();
        assert_eq!(t.kind, RuleKind::Test);
        assert_eq!(t.deps, vec![TargetName::from_str("//pkg:a").unwrap()]);
    }

    #[test]
    fn trailing_commas_are_fine() {
        let (tree, store) = workspace(&[(
            "p/BUILD",
            "library(name = \"p\", srcs = [\"s.rs\",], deps = [],)\n",
        )]);
        assert_eq!(parse_workspace(&tree, &store).unwrap().len(), 1);
    }

    #[test]
    fn parse_errors_carry_path_and_message() {
        for (bad, needle) in [
            ("library(name = \"x\"", "end of file"),
            ("library(srcs = [\"s.rs\"])", "missing the 'name'"),
            ("library(name = [\"x\"])", "'name' must be a string"),
            ("genrule(name = \"x\")", "unknown rule kind"),
            ("library(name = \"x\") @", "unexpected character"),
            ("library(name = \"x", "unterminated string"),
        ] {
            let (tree, store) = workspace(&[("p/BUILD", bad)]);
            match parse_workspace(&tree, &store) {
                Err(BuildError::Parse { path, message }) => {
                    assert_eq!(path, "p/BUILD");
                    assert!(
                        message.contains(needle),
                        "for {bad:?}: {message:?} should mention {needle:?}"
                    );
                }
                other => panic!("expected parse error for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn dangling_dep_is_rejected_at_graph_level() {
        let (tree, store) = workspace(&[(
            "p/BUILD",
            "library(name = \"p\", srcs = [\"s.rs\"], deps = [\"//gone:gone\"])\n",
        )]);
        assert!(matches!(
            parse_workspace(&tree, &store),
            Err(BuildError::UnknownDependency { .. })
        ));
    }

    #[test]
    fn non_build_files_are_ignored() {
        let (tree, store) = workspace(&[
            ("a/BUILD", "library(name = \"a\", srcs = [])\n"),
            ("a/BUILD.bak", "not ( valid"),
            ("notes/README", "plain text"),
        ]);
        assert_eq!(parse_workspace(&tree, &store).unwrap().len(), 1);
    }

    #[test]
    fn root_package_build_file() {
        let (tree, store) = workspace(&[("BUILD", "config(name = \"root\", srcs = [\"cfg\"])\n")]);
        let g = parse_workspace(&tree, &store).unwrap();
        let t = g.get(&TargetName::from_str("//:root").unwrap()).unwrap();
        assert_eq!(t.srcs, vec![RepoPath::new("cfg").unwrap()]);
    }
}

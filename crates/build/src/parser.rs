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
use sq_vcs::{ObjectStore, RepoPath, Tree};

/// Parse all BUILD files in the snapshot into a validated target graph.
pub fn parse_workspace(tree: &Tree, store: &ObjectStore) -> Result<BuildGraph, BuildError> {
    let mut targets: Vec<Target> = Vec::new();
    for (path, id) in tree.iter() {
        if path.file_name() != "BUILD" {
            continue;
        }
        let text = store
            .get_text(id)
            .ok_or_else(|| BuildError::MissingObject(id.to_hex()))?;
        let package = path.parent().unwrap_or("");
        targets.extend(parse_build_file(path.as_str(), package, &text)?);
    }
    BuildGraph::from_targets(targets)
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
    let mut out = Vec::new();
    while !p.at_end() {
        out.push(p.rule()?);
    }
    Ok(out)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    Str(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Equals,
}

impl Token {
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

fn tokenize(path: &str, text: &str) -> Result<Vec<Token>, BuildError> {
    let err = |message: String| BuildError::Parse {
        path: path.to_string(),
        message,
    };
    let mut tokens = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '#' => {
                // Comment to end of line.
                for c in chars.by_ref() {
                    if c == '\n' {
                        break;
                    }
                }
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '(' => {
                chars.next();
                tokens.push(Token::LParen);
            }
            ')' => {
                chars.next();
                tokens.push(Token::RParen);
            }
            '[' => {
                chars.next();
                tokens.push(Token::LBracket);
            }
            ']' => {
                chars.next();
                tokens.push(Token::RBracket);
            }
            ',' => {
                chars.next();
                tokens.push(Token::Comma);
            }
            '=' => {
                chars.next();
                tokens.push(Token::Equals);
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\n') | None => return Err(err("unterminated string literal".into())),
                        Some(c) => s.push(c),
                    }
                }
                tokens.push(Token::Str(s));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(s));
            }
            other => return Err(err(format!("unexpected character '{other}'"))),
        }
    }
    Ok(tokens)
}

struct Parser<'a> {
    path: &'a str,
    package: &'a str,
    tokens: &'a [Token],
    pos: usize,
}

/// An attribute value: a string or a list of strings.
enum Value {
    Str(String),
    List(Vec<String>),
}

impl<'a> Parser<'a> {
    fn err(&self, message: String) -> BuildError {
        BuildError::Parse {
            path: self.path.to_string(),
            message,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn next(&mut self, wanted: &str) -> Result<&'a Token, BuildError> {
        let t = self
            .tokens
            .get(self.pos)
            .ok_or_else(|| self.err(format!("expected {wanted}, found end of file")))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, token: Token) -> Result<(), BuildError> {
        let found = self.next(&token.describe())?;
        if *found == token {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                token.describe(),
                found.describe()
            )))
        }
    }

    fn peek_is(&self, token: &Token) -> bool {
        self.tokens.get(self.pos) == Some(token)
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
        let mut name: Option<String> = None;
        let mut srcs: Vec<String> = Vec::new();
        let mut deps: Vec<String> = Vec::new();
        while !self.peek_is(&Token::RParen) {
            let attr = match self.next("an attribute name")? {
                Token::Ident(s) => s.clone(),
                other => {
                    return Err(
                        self.err(format!("expected an attribute, found {}", other.describe()))
                    )
                }
            };
            self.expect(Token::Equals)?;
            let value = self.value()?;
            match (attr.as_str(), value) {
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
            if self.peek_is(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect(Token::RParen)?;
        let name = name.ok_or_else(|| self.err("rule is missing the 'name' attribute".into()))?;
        let target_name = TargetName::resolve(&format!(":{name}"), self.package)?;
        let srcs = srcs
            .iter()
            .map(|s| {
                let full = if self.package.is_empty() {
                    s.clone()
                } else {
                    format!("{}/{}", self.package, s)
                };
                RepoPath::new(&full).map_err(|_| self.err(format!("invalid source path '{s}'")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let deps = deps
            .iter()
            .map(|d| TargetName::resolve(d, self.package))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Target::new(target_name, kind, srcs, deps))
    }

    fn value(&mut self) -> Result<Value, BuildError> {
        match self.next("a value")? {
            Token::Str(s) => Ok(Value::Str(s.clone())),
            Token::LBracket => {
                let mut items = Vec::new();
                while !self.peek_is(&Token::RBracket) {
                    match self.next("a string")? {
                        Token::Str(s) => items.push(s.clone()),
                        other => {
                            return Err(self.err(format!(
                                "expected a string in list, found {}",
                                other.describe()
                            )))
                        }
                    }
                    if self.peek_is(&Token::Comma) {
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

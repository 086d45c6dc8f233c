//! Item extraction: functions, impl blocks, and modules from a token
//! stream, with crate-qualified paths.
//!
//! This is the IR layer between the [`crate::lexer`] and the call graph: a
//! brace-depth walk (not a full parser) that recognises `mod NAME {`,
//! `impl … {`, `trait NAME {`, and `fn NAME(…) {` and records, for every
//! function with a body, a crate-qualified path like
//! `serve::server::ServeState::decide` plus the token range of its body.
//!
//! Test code is excluded at this layer: items inside a `#[cfg(test)]`
//! module, or functions carrying `#[test]`, are marked `is_test` and every
//! downstream pass skips them — an `unwrap()` in a unit test is not a
//! panic-surface finding.
//!
//! Known approximations (documented, tested, acceptable for the passes):
//! `use` trees and `macro_rules!` bodies are skipped wholesale so their
//! braces cannot desynchronise the scope stack; function pointers
//! (`fn(u8)`) are not items; nested `fn`s become their own items under the
//! enclosing module path.

use crate::lexer::{LineIndex, TokKind, Token};

/// One function item with a body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnItem {
    /// The crate the function lives in (directory name, e.g. `"serve"`).
    pub krate: String,
    /// Crate-qualified path: `crate::mod::…::Type::name` (impl type
    /// included when the fn is an associated item).
    pub path: String,
    /// The bare function name.
    pub name: String,
    /// The impl/trait type the fn is associated with, if any.
    pub impl_type: Option<String>,
    /// Root-relative file path (diagnostic spans).
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token-index range of the body, *excluding* the outer braces.
    pub body: std::ops::Range<usize>,
    /// Inside `#[cfg(test)]` or carrying `#[test]`.
    pub is_test: bool,
}

#[derive(Clone, Debug)]
enum Scope {
    Mod { name: String, test: bool },
    Impl { ty: String },
    Fn,
    Block,
}

/// Extracts every function item from `tokens` (as produced by
/// [`crate::lexer::lex`] over `src`); `lines` is `src`'s line index.
pub fn extract_fns(
    krate: &str,
    file: &str,
    src: &str,
    tokens: &[Token],
    lines: &LineIndex,
) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    // Attribute state for the *next* item at this nesting level.
    let mut pending_cfg_test = false;
    let mut pending_attr_test = false;

    let significant: Vec<usize> = (0..tokens.len())
        .filter(|&i| {
            !matches!(
                tokens[i].kind,
                TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
            )
        })
        .collect();
    let text = |si: usize| tokens[significant[si]].text(src);
    let kind = |si: usize| tokens[significant[si]].kind;

    let mut si = 0usize;
    while si < significant.len() {
        match (kind(si), text(si)) {
            (TokKind::Punct, "#") => {
                // Attribute: `#[…]` (or `#![…]`). Scan the bracket group and
                // look for cfg(test) / test markers.
                let mut j = si + 1;
                if j < significant.len() && text(j) == "!" {
                    j += 1;
                }
                if j < significant.len() && text(j) == "[" {
                    let mut depth = 0usize;
                    let mut words: Vec<&str> = Vec::new();
                    while j < significant.len() {
                        match text(j) {
                            "[" => depth += 1,
                            "]" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            w if kind(j) == TokKind::Ident => words.push(w),
                            _ => {}
                        }
                        j += 1;
                    }
                    if words.first() == Some(&"cfg") && words.contains(&"test") {
                        pending_cfg_test = true;
                    }
                    if words.len() == 1 && (words[0] == "test" || words[0] == "bench") {
                        pending_attr_test = true;
                    }
                    si = j + 1;
                    continue;
                }
                si += 1;
            }
            (TokKind::Ident, "use") => {
                // `use a::{b, c};` — braces here are not scopes.
                while si < significant.len() && text(si) != ";" {
                    si += 1;
                }
                si += 1;
            }
            (TokKind::Ident, "macro_rules") => {
                // `macro_rules! name { … }` — skip the balanced brace group.
                while si < significant.len() && text(si) != "{" {
                    si += 1;
                }
                si = skip_balanced(&significant, tokens, src, si, "{", "}");
                pending_cfg_test = false;
                pending_attr_test = false;
            }
            (TokKind::Ident, "mod") => {
                let name = if si + 1 < significant.len() && kind(si + 1) == TokKind::Ident {
                    text(si + 1).to_owned()
                } else {
                    String::new()
                };
                si += 2;
                // `mod name;` declares an out-of-line module — no scope.
                if si < significant.len() && text(si) == "{" {
                    scopes.push(Scope::Mod {
                        name,
                        test: pending_cfg_test,
                    });
                    si += 1;
                }
                pending_cfg_test = false;
                pending_attr_test = false;
            }
            (TokKind::Ident, "impl" | "trait") => {
                let ty = impl_type(&significant, tokens, src, si, text(si) == "trait");
                while si < significant.len() && text(si) != "{" && text(si) != ";" {
                    si += 1;
                }
                if si < significant.len() && text(si) == "{" {
                    scopes.push(Scope::Impl { ty });
                    si += 1;
                } else {
                    si += 1; // `impl Trait for X;` — nothing to scope
                }
                pending_cfg_test = false;
                pending_attr_test = false;
            }
            (TokKind::Ident, "fn")
                if si + 1 < significant.len() && kind(si + 1) == TokKind::Ident =>
            {
                let name = text(si + 1).to_owned();
                let fn_line = lines.line(tokens[significant[si]].start);
                // Scan the signature to the body `{` or a `;` declaration.
                // Parens/brackets are balanced; `->` return types may carry
                // braces only after generic/paren depth returns to zero.
                let mut j = si + 2;
                let mut paren = 0i32;
                let mut bracket = 0i32;
                let mut found_body = None;
                while j < significant.len() {
                    match text(j) {
                        "(" => paren += 1,
                        ")" => paren -= 1,
                        "[" => bracket += 1,
                        "]" => bracket -= 1,
                        "{" if paren == 0 && bracket == 0 => {
                            found_body = Some(j);
                            break;
                        }
                        ";" if paren == 0 && bracket == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let in_test_scope = scopes
                    .iter()
                    .any(|s| matches!(s, Scope::Mod { test: true, .. }))
                    || pending_cfg_test;
                if let Some(body_open) = found_body {
                    let body_close = find_close(&significant, tokens, src, body_open);
                    let impl_ty = scopes.iter().rev().find_map(|s| match s {
                        Scope::Impl { ty } => Some(ty.clone()),
                        _ => None,
                    });
                    let mut path = vec![krate.to_owned()];
                    for s in &scopes {
                        if let Scope::Mod { name, .. } = s {
                            path.push(name.clone());
                        }
                    }
                    if let Some(ty) = &impl_ty {
                        path.push(ty.clone());
                    }
                    path.push(name.clone());
                    fns.push(FnItem {
                        krate: krate.to_owned(),
                        path: path.join("::"),
                        name,
                        impl_type: impl_ty,
                        file: file.to_owned(),
                        line: fn_line,
                        body: significant[body_open] + 1..significant[body_close],
                        is_test: in_test_scope || pending_attr_test,
                    });
                    scopes.push(Scope::Fn);
                    si = body_open + 1;
                } else {
                    si = j + 1;
                }
                pending_cfg_test = false;
                pending_attr_test = false;
            }
            (TokKind::Punct, "{") => {
                scopes.push(Scope::Block);
                si += 1;
            }
            (TokKind::Punct, "}") => {
                scopes.pop();
                si += 1;
            }
            _ => si += 1,
        }
    }
    fns
}

/// Finds the significant-index of the `}` matching the `{` at `open`.
fn find_close(significant: &[usize], tokens: &[Token], src: &str, open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < significant.len() {
        match tokens[significant[j]].text(src) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    significant.len().saturating_sub(1)
}

/// Skips past a balanced `open`…`close` group starting at or after `si`;
/// returns the index just past the closing token.
fn skip_balanced(
    significant: &[usize],
    tokens: &[Token],
    src: &str,
    si: usize,
    open: &str,
    close: &str,
) -> usize {
    let mut depth = 0i32;
    let mut j = si;
    while j < significant.len() {
        let t = tokens[significant[j]].text(src);
        if t == open {
            depth += 1;
        } else if t == close {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Resolves the self-type of an `impl` / `trait` header starting at `si`
/// (which points at the keyword): the last top-level path segment before
/// the body, after `for` when present (`impl Trait for Foo` → `Foo`).
fn impl_type(
    significant: &[usize],
    tokens: &[Token],
    src: &str,
    si: usize,
    is_trait: bool,
) -> String {
    let mut angle = 0i32;
    let mut last_ident = String::new();
    let mut j = si + 1;
    while j < significant.len() {
        let t = tokens[significant[j]].text(src);
        match t {
            "{" | ";" if angle == 0 => break,
            "where" if angle == 0 => break,
            "<" => angle += 1,
            // `->` inside generic bounds (`Fn() -> u8`) is not a close.
            ">" if tokens[significant[j.saturating_sub(1)]].text(src) != "-" => {
                angle -= 1;
            }
            ">" => {}
            "for" if angle == 0 => last_ident.clear(),
            "dyn" | "mut" | "const" => {}
            w if angle == 0 && tokens[significant[j]].kind == TokKind::Ident => {
                last_ident = w.to_owned();
                if is_trait {
                    // `trait Name …` — the first ident is the name.
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    last_ident
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> Vec<FnItem> {
        let path = "crates/demo/src/lib.rs";
        extract_fns("demo", path, src, &lex(src), &LineIndex::new(src))
    }

    #[test]
    fn free_and_associated_fns_get_qualified_paths() {
        let src = "pub fn top() {}\n\
                   mod inner {\n\
                       pub struct S;\n\
                       impl S { pub fn method(&self) -> u8 { 1 } }\n\
                       impl std::fmt::Display for S {\n\
                           fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n\
                       }\n\
                   }\n";
        let found = items(src);
        let got: Vec<&str> = found.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(
            got,
            vec!["demo::top", "demo::inner::S::method", "demo::inner::S::fmt"]
        );
    }

    #[test]
    fn cfg_test_modules_and_test_fns_are_marked() {
        let src = "fn real() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn checks() { real(); }\n\
                       fn helper() {}\n\
                   }\n";
        let got = items(src);
        assert_eq!(got.len(), 3);
        assert!(!got[0].is_test, "{got:?}");
        assert!(got[1].is_test, "fn under cfg(test) mod");
        assert!(got[2].is_test, "helper under cfg(test) mod");
    }

    #[test]
    fn use_trees_and_fn_pointers_do_not_derail_scoping() {
        let src = "use std::collections::{HashMap, HashSet};\n\
                   struct Holder { callback: fn(u8) -> u8 }\n\
                   impl Holder { fn call(&self) -> u8 { (self.callback)(1) } }\n";
        let got = items(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].path, "demo::Holder::call");
    }

    #[test]
    fn trait_default_methods_belong_to_the_trait() {
        let src = "trait Scorer { fn base(&self) -> f64 { 0.5 } fn score(&self) -> f64; }";
        let got = items(src);
        assert_eq!(got.len(), 1, "declarations without bodies are not items");
        assert_eq!(got[0].path, "demo::Scorer::base");
    }

    #[test]
    fn nested_fns_and_generics_parse() {
        let src = "fn outer<T: Into<Vec<u8>>>(x: T) -> impl Iterator<Item = u8> {\n\
                       fn inner(v: Vec<u8>) -> std::vec::IntoIter<u8> { v.into_iter() }\n\
                       inner(x.into())\n\
                   }\n\
                   fn after() {}\n";
        let found = items(src);
        let got: Vec<&str> = found.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(got, vec!["demo::outer", "demo::inner", "demo::after"]);
    }

    #[test]
    fn body_ranges_cover_the_body_tokens() {
        let src = "fn f() { helper(1); }";
        let got = items(src);
        let tokens = lex(src);
        let body_text: String = tokens[got[0].body.clone()]
            .iter()
            .map(|t| t.text(src))
            .collect();
        assert_eq!(body_text.trim(), "helper(1);");
    }

    #[test]
    fn macro_rules_bodies_are_opaque() {
        let src = "macro_rules! gen { () => { fn generated() {} }; }\nfn real() {}";
        let found = items(src);
        let got: Vec<&str> = found.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(got, vec!["real"]);
    }
}

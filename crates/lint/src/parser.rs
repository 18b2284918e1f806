//! A lightweight recursive-descent parser over [`crate::lexer`].
//!
//! Produces the per-file item/fn/expr tree every rule reads (the
//! doc-coupled schema, horizon and checkpoint rules and the deep
//! fp-order, hot-alloc, panic-reachability, unit-escape and api-surface
//! rules). It is a *lint* parser, not a compiler front end: parsing is
//! **total** — any construct it does not model degrades to a
//! [`Expr::Seq`] of its parsed sub-expressions rather than an error, so
//! exotic syntax can hide a finding but can never abort the pass (the
//! same grace the lexer extends to unterminated literals).
//!
//! Three layers:
//!
//! 1. a bracket-matched **token tree** ([`Tt`]) built from the flat
//!    token stream;
//! 2. an **item parser** producing [`Item`]s — functions, types, impls,
//!    traits, modules — each with its visibility, canonical one-line
//!    signature (the api-surface snapshot text) and `#[cfg(test)]`
//!    gating;
//! 3. an **expression parser** turning `fn` bodies into [`Expr`] trees
//!    with real method-call chains, call arguments, indexing, casts and
//!    `+`/`-`/`*`/`/` structure — exactly the shapes the fp-order,
//!    unit-escape and panic-reachability rules pattern-match on.

use crate::lexer::{Spanned, Tok};

// ---------------------------------------------------------------------------
// Token trees
// ---------------------------------------------------------------------------

/// A token or a balanced bracket group.
#[derive(Debug, Clone)]
pub enum Tt {
    /// A single non-bracket token.
    Tok(Spanned),
    /// A `( … )`, `[ … ]` or `{ … }` group.
    Group {
        /// Opening bracket: `(`, `[` or `{`.
        open: char,
        /// The tokens inside, recursively grouped.
        items: Vec<Tt>,
        /// Line of the opening bracket.
        line: u32,
    },
}

impl Tt {
    /// The source line this tree starts on.
    pub fn line(&self) -> u32 {
        match self {
            Tt::Tok(t) => t.line,
            Tt::Group { line, .. } => *line,
        }
    }

    /// The identifier text, when this is an identifier token.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tt::Tok(Spanned {
                tok: Tok::Ident(s), ..
            }) => Some(s),
            _ => None,
        }
    }

    /// True when this is the punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tt::Tok(t) if t.is_punct(c))
    }

    /// True when this is a group opened by `c`.
    pub fn is_group(&self, c: char) -> bool {
        matches!(self, Tt::Group { open, .. } if *open == c)
    }
}

/// Builds the token-tree layer from a flat token stream. Unbalanced
/// closers are kept as plain tokens; unbalanced openers close at
/// end-of-stream — the parser never fails.
pub fn build_tts(toks: &[Spanned]) -> Vec<Tt> {
    let mut i = 0usize;
    build_group(toks, &mut i, None)
}

fn build_group(toks: &[Spanned], i: &mut usize, until: Option<char>) -> Vec<Tt> {
    let mut out = Vec::new();
    while *i < toks.len() {
        let t = &toks[*i];
        match &t.tok {
            Tok::Punct(c @ ('(' | '[' | '{')) => {
                let open = *c;
                let line = t.line;
                *i += 1;
                let items = build_group(toks, i, Some(closer(open)));
                out.push(Tt::Group { open, items, line });
            }
            Tok::Punct(c @ (')' | ']' | '}')) => {
                if until == Some(*c) {
                    *i += 1;
                    return out;
                }
                // Stray closer: keep it and move on.
                out.push(Tt::Tok(t.clone()));
                *i += 1;
            }
            _ => {
                out.push(Tt::Tok(t.clone()));
                *i += 1;
            }
        }
    }
    out
}

fn closer(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

// ---------------------------------------------------------------------------
// Items
// ---------------------------------------------------------------------------

/// Item visibility, as written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// `pub`.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in …)`.
    Scoped,
    /// No visibility qualifier.
    Private,
}

/// What kind of item this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemKind {
    /// A function (free, impl-associated or trait-declared).
    Fn,
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `union`.
    Union,
    /// `trait`.
    Trait,
    /// An `impl` block; `trait_name` is set for trait impls.
    Impl {
        /// The `Self` type's head identifier (`Engine` for
        /// `impl<'a> Engine<'a>`).
        self_ty: String,
        /// The implemented trait's head identifier, for trait impls.
        trait_name: Option<String>,
    },
    /// `mod name;` or `mod name { … }`.
    Mod {
        /// True for `mod name { … }` (children parsed in place).
        inline: bool,
    },
    /// `use …;`.
    Use,
    /// `const …;`.
    Const,
    /// `static …;`.
    Static,
    /// `type … = …;`.
    TypeAlias,
    /// `macro_rules! name { … }`.
    MacroDef,
    /// A named field (child of a `Struct` item or a struct-like
    /// `Variant`).
    Field,
    /// An enum variant (child of an `Enum` item).
    Variant,
    /// Anything else (`extern crate`, foreign blocks — whose fn
    /// declarations become children — …).
    Other,
}

/// One parsed item.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// The item's name (`run_controlled`, `Engine`, …); empty for
    /// `impl` blocks and `use` declarations.
    pub name: String,
    /// Visibility as written.
    pub vis: Vis,
    /// 1-based line of the item's first token.
    pub line: u32,
    /// Canonical one-line signature (everything up to the body),
    /// rendered with normalized spacing — the api-surface snapshot text.
    pub signature: String,
    /// Nested items: a module's contents, an impl/trait's functions, a
    /// struct's or struct-like variant's fields, an enum's variants.
    pub children: Vec<Item>,
    /// The parsed body, for functions with one.
    pub body: Option<Expr>,
    /// True when the item (or an enclosing item) is gated behind
    /// `#[test]` / `#[cfg(test)]`.
    pub cfg_test: bool,
}

/// A parsed source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl ParsedFile {
    /// Visits every item in the tree, depth-first.
    pub fn visit_items<'a>(&'a self, f: &mut dyn FnMut(&'a Item, &[&'a Item])) {
        fn walk<'a>(
            items: &'a [Item],
            stack: &mut Vec<&'a Item>,
            f: &mut dyn FnMut(&'a Item, &[&'a Item]),
        ) {
            for it in items {
                f(it, stack);
                stack.push(it);
                walk(&it.children, stack, f);
                stack.pop();
            }
        }
        walk(&self.items, &mut Vec::new(), f);
    }
}

/// Parses a file's token stream into an item tree.
pub fn parse_file(toks: &[Spanned]) -> ParsedFile {
    let tts = build_tts(toks);
    ParsedFile {
        items: parse_items(&tts, false),
    }
}

/// Keywords that can prefix a `fn` (in any order).
const FN_QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern", "default"];

fn parse_items(tts: &[Tt], in_test: bool) -> Vec<Item> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tts.len() {
        // Attributes: `#[…]` / `#![…]`. An attribute gates the item behind
        // tests when it mentions `test` and not `not`.
        let mut cfg_test = in_test;
        let attr_start = i;
        while i < tts.len() && tts[i].is_punct('#') {
            let mut j = i + 1;
            if j < tts.len() && tts[j].is_punct('!') {
                j += 1;
            }
            if j < tts.len() && tts[j].is_group('[') {
                if let Tt::Group { items, .. } = &tts[j] {
                    let (has_test, has_not) = attr_test_markers(items);
                    if has_test && !has_not {
                        cfg_test = true;
                    }
                }
                i = j + 1;
            } else {
                break;
            }
        }
        // Visibility.
        let mut vis = Vis::Private;
        let vis_start = i;
        if tts.get(i).and_then(Tt::ident) == Some("pub") {
            i += 1;
            if tts.get(i).is_some_and(|t| t.is_group('(')) {
                vis = Vis::Scoped;
                i += 1;
            } else {
                vis = Vis::Pub;
            }
        }
        // Qualifier keywords before `fn`.
        let mut j = i;
        while tts
            .get(j)
            .and_then(Tt::ident)
            .is_some_and(|s| FN_QUALIFIERS.contains(&s))
        {
            j += 1;
            // `extern "C"` carries a string literal.
            if matches!(
                tts.get(j),
                Some(Tt::Tok(Spanned {
                    tok: Tok::Str(_),
                    ..
                }))
            ) {
                j += 1;
            }
        }
        let kw = tts.get(j).and_then(Tt::ident);
        // Rendered signatures start at the visibility qualifier, not
        // after it.
        i = vis_start;
        let item = match kw {
            Some("fn") => Some(parse_fn(tts, &mut i, j, vis, cfg_test)),
            Some("struct") => Some(parse_type_item(
                tts,
                &mut i,
                j,
                vis,
                cfg_test,
                ItemKind::Struct,
            )),
            Some("enum") => Some(parse_type_item(
                tts,
                &mut i,
                j,
                vis,
                cfg_test,
                ItemKind::Enum,
            )),
            Some("union") => Some(parse_type_item(
                tts,
                &mut i,
                j,
                vis,
                cfg_test,
                ItemKind::Union,
            )),
            Some("trait") => Some(parse_trait(tts, &mut i, j, vis, cfg_test)),
            Some("impl") => Some(parse_impl(tts, &mut i, j, vis, cfg_test)),
            Some("mod") => Some(parse_mod(tts, &mut i, j, vis, cfg_test)),
            Some("use") => Some(parse_simple(tts, &mut i, j, vis, cfg_test, ItemKind::Use)),
            Some("const") if tts.get(j + 1).and_then(Tt::ident) != Some("fn") => {
                Some(parse_simple(tts, &mut i, j, vis, cfg_test, ItemKind::Const))
            }
            Some("static") => Some(parse_simple(
                tts,
                &mut i,
                j,
                vis,
                cfg_test,
                ItemKind::Static,
            )),
            Some("type") => Some(parse_simple(
                tts,
                &mut i,
                j,
                vis,
                cfg_test,
                ItemKind::TypeAlias,
            )),
            Some("macro_rules") => Some(parse_macro_def(tts, &mut i, j, cfg_test)),
            Some("extern") => Some(parse_simple(tts, &mut i, j, vis, cfg_test, ItemKind::Other)),
            None if is_foreign_block(tts, i, j) => {
                Some(parse_foreign(tts, &mut i, j, vis, cfg_test))
            }
            _ => None,
        };
        match item {
            Some(mut it) => {
                // Report the item at its first attribute's line when the
                // attributes came first.
                if attr_start < vis_start {
                    it.line = it.line.min(tts[attr_start].line());
                }
                out.push(it);
            }
            None => {
                // `name ! { … }` at item position (`proptest!` and
                // friends): the braces usually hold ordinary items, so
                // parse them as children — otherwise every fn declared
                // through such a macro would silently vanish from the
                // symbol table and the call graph.
                let bang = matches!(
                    tts.get(j + 1),
                    Some(Tt::Tok(Spanned {
                        tok: Tok::Punct('!'),
                        ..
                    }))
                );
                let brace = match (kw, bang, tts.get(j + 2)) {
                    (
                        Some(_),
                        true,
                        Some(Tt::Group {
                            open: '{', items, ..
                        }),
                    ) => Some(items),
                    _ => None,
                };
                match brace {
                    Some(items) => {
                        out.push(Item {
                            kind: ItemKind::Other,
                            name: kw.unwrap_or_default().to_string(),
                            vis,
                            line: tts[j].line(),
                            signature: String::new(),
                            children: parse_items(items, cfg_test),
                            body: None,
                            cfg_test,
                        });
                        i = j + 3;
                    }
                    None => {
                        // Not an item head we model — skip one tree.
                        i = i.max(j) + 1;
                    }
                }
            }
        }
    }
    out
}

fn attr_test_markers(items: &[Tt]) -> (bool, bool) {
    let mut has_test = false;
    let mut has_not = false;
    for t in items {
        match t {
            Tt::Tok(s) => {
                if s.is_ident("test") {
                    has_test = true;
                }
                if s.is_ident("not") {
                    has_not = true;
                }
            }
            Tt::Group { items, .. } => {
                let (t2, n2) = attr_test_markers(items);
                has_test |= t2;
                has_not |= n2;
            }
        }
    }
    (has_test, has_not)
}

/// Renders a token-tree slice as a canonical one-line string.
pub fn render(tts: &[Tt]) -> String {
    let mut pieces = Vec::new();
    flatten_pieces(tts, &mut pieces);
    join_pieces(&pieces)
}

/// Flattens trees into string pieces, merging multi-character operators
/// (`::`, `->`, `=>`) so spacing rules can treat them atomically.
fn flatten_pieces(tts: &[Tt], out: &mut Vec<String>) {
    let mut k = 0usize;
    while k < tts.len() {
        match &tts[k] {
            Tt::Tok(s) => {
                let next = tts.get(k + 1).and_then(|t| match t {
                    Tt::Tok(n) => match n.tok {
                        Tok::Punct(c) => Some(c),
                        _ => None,
                    },
                    _ => None,
                });
                let merged = match (&s.tok, next) {
                    (Tok::Punct(':'), Some(':')) => Some("::"),
                    (Tok::Punct('-'), Some('>')) => Some("->"),
                    (Tok::Punct('='), Some('>')) => Some("=>"),
                    _ => None,
                };
                if let Some(m) = merged {
                    out.push(m.to_string());
                    k += 2;
                    continue;
                }
                out.push(match &s.tok {
                    Tok::Ident(x) => x.clone(),
                    Tok::Punct(c) => c.to_string(),
                    Tok::Str(_) => "\"…\"".to_string(),
                    Tok::CharLit => "'…'".to_string(),
                    Tok::Num(n) => n.clone(),
                    Tok::Lifetime => "'_".to_string(),
                });
            }
            Tt::Group { open, items, .. } => {
                out.push(open.to_string());
                flatten_pieces(items, out);
                out.push(closer(*open).to_string());
            }
        }
        k += 1;
    }
}

/// Joins pieces with canonical spacing: tight binding around path
/// separators, brackets, generics and reference sigils; single spaces
/// elsewhere.
fn join_pieces(pieces: &[String]) -> String {
    let mut out = String::new();
    let mut prev: Option<&str> = None;
    for piece in pieces {
        let tight_before = matches!(
            piece.as_str(),
            "," | ";" | ":" | "::" | "?" | "!" | ")" | "]" | ">" | "(" | "[" | "<"
        );
        let tight_after_prev = matches!(prev, Some("(" | "[" | "<" | "::" | "&" | "#"));
        if prev.is_some() && !tight_before && !tight_after_prev {
            out.push(' ');
        }
        out.push_str(piece);
        prev = Some(piece.as_str());
    }
    out
}

/// Finds the index of the body `{…}` group or terminating `;`, scanning
/// from `start`. Returns `(signature_end, body_index)` where `body_index`
/// is `Some` for a brace body.
fn find_body(tts: &[Tt], start: usize) -> (usize, Option<usize>) {
    let mut k = start;
    while k < tts.len() {
        if tts[k].is_punct(';') {
            return (k, None);
        }
        if tts[k].is_group('{') {
            return (k, Some(k));
        }
        k += 1;
    }
    (k, None)
}

fn parse_fn(tts: &[Tt], i: &mut usize, kw: usize, vis: Vis, cfg_test: bool) -> Item {
    let line = tts[*i].line();
    let name = tts
        .get(kw + 1)
        .and_then(Tt::ident)
        .unwrap_or_default()
        .to_string();
    let (sig_end, body_idx) = find_body(tts, kw);
    let signature = render(&tts[*i..sig_end]);
    let mut children = Vec::new();
    let body = body_idx.and_then(|b| match &tts[b] {
        Tt::Group { items, .. } => {
            // Helper fns (and impl/trait/mod blocks holding fns)
            // declared at the top level of the body become child items,
            // so they exist in the symbol table under their own names.
            // Their bodies are *also* inlined into this fn's body by
            // parse_stmt — reachability stays conservative — so
            // per-body rules must visit only outermost bodies.
            children = parse_items(items, cfg_test)
                .into_iter()
                .filter(|it| {
                    (matches!(it.kind, ItemKind::Fn) && !it.name.is_empty() && it.body.is_some())
                        || !it.children.is_empty()
                })
                .collect();
            Some(parse_block(items))
        }
        Tt::Tok(_) => None,
    });
    *i = sig_end + 1;
    Item {
        kind: ItemKind::Fn,
        name,
        vis,
        line,
        signature,
        children,
        body,
        cfg_test,
    }
}

fn parse_type_item(
    tts: &[Tt],
    i: &mut usize,
    kw: usize,
    vis: Vis,
    cfg_test: bool,
    kind: ItemKind,
) -> Item {
    let line = tts[*i].line();
    let name = tts
        .get(kw + 1)
        .and_then(Tt::ident)
        .unwrap_or_default()
        .to_string();
    let (sig_end, body_idx) = find_body(tts, kw);
    let signature = render(&tts[*i..sig_end]);
    let mut children = Vec::new();
    if let Some(Tt::Group { items, .. }) = body_idx.map(|b| &tts[b]) {
        match kind {
            ItemKind::Struct | ItemKind::Union => children = parse_fields(items, cfg_test),
            ItemKind::Enum => children = parse_variants(items, cfg_test),
            _ => {}
        }
    }
    // Tuple structs: `struct X(pub A, B);` — expose pub tuple fields via
    // the signature itself (the paren group precedes the `;`).
    *i = sig_end + 1;
    Item {
        kind,
        name,
        vis,
        line,
        signature,
        children,
        body: None,
        cfg_test,
    }
}

/// Parses named struct fields into `Field` children.
fn parse_fields(tts: &[Tt], cfg_test: bool) -> Vec<Item> {
    let mut out = Vec::new();
    for part in split_top(tts, ',') {
        // Strip per-field attributes.
        let mut s = 0usize;
        while s < part.len() && part[s].is_punct('#') {
            s += 1;
            if s < part.len() && part[s].is_group('[') {
                s += 1;
            }
        }
        let part = &part[s..];
        if part.is_empty() {
            continue;
        }
        let mut vis = Vis::Private;
        let mut k = 0usize;
        if part.first().and_then(Tt::ident) == Some("pub") {
            k += 1;
            if part.get(k).is_some_and(|t| t.is_group('(')) {
                vis = Vis::Scoped;
                k += 1;
            } else {
                vis = Vis::Pub;
            }
        }
        // A name must be followed by `:`; this also drops the tail of a
        // generic argument list split at its comma (`V>` of `Map<K, V>`).
        let Some(name) = part.get(k).and_then(Tt::ident) else {
            continue;
        };
        if !part.get(k + 1).is_some_and(|t| t.is_punct(':')) {
            continue;
        }
        out.push(Item {
            kind: ItemKind::Field,
            name: name.to_string(),
            vis,
            line: part[0].line(),
            signature: render(part),
            children: Vec::new(),
            body: None,
            cfg_test,
        });
    }
    out
}

/// Parses enum variants into `Variant` children (always `Pub`: variant
/// visibility follows the enum's); a struct-like variant's named fields
/// become its `Field` children.
fn parse_variants(tts: &[Tt], cfg_test: bool) -> Vec<Item> {
    let mut out = Vec::new();
    for part in split_top(tts, ',') {
        let mut s = 0usize;
        while s < part.len() && part[s].is_punct('#') {
            s += 1;
            if s < part.len() && part[s].is_group('[') {
                s += 1;
            }
        }
        let part = &part[s..];
        let Some(name) = part.first().and_then(Tt::ident) else {
            continue;
        };
        let children = match part.get(1) {
            Some(Tt::Group {
                open: '{', items, ..
            }) => parse_fields(items, cfg_test),
            _ => Vec::new(),
        };
        out.push(Item {
            kind: ItemKind::Variant,
            name: name.to_string(),
            vis: Vis::Pub,
            line: part[0].line(),
            signature: render(part),
            children,
            body: None,
            cfg_test,
        });
    }
    out
}

fn parse_trait(tts: &[Tt], i: &mut usize, kw: usize, vis: Vis, cfg_test: bool) -> Item {
    let line = tts[*i].line();
    let name = tts
        .get(kw + 1)
        .and_then(Tt::ident)
        .unwrap_or_default()
        .to_string();
    let (sig_end, body_idx) = find_body(tts, kw);
    let signature = render(&tts[*i..sig_end]);
    let children = match body_idx.map(|b| &tts[b]) {
        Some(Tt::Group { items, .. }) => parse_items(items, cfg_test),
        _ => Vec::new(),
    };
    *i = sig_end + 1;
    Item {
        kind: ItemKind::Trait,
        name,
        vis,
        line,
        signature,
        children,
        body: None,
        cfg_test,
    }
}

fn parse_impl(tts: &[Tt], i: &mut usize, kw: usize, vis: Vis, cfg_test: bool) -> Item {
    let line = tts[*i].line();
    let (sig_end, body_idx) = find_body(tts, kw);
    let header = &tts[kw..sig_end];
    let (self_ty, trait_name) = impl_heads(header);
    let signature = render(&tts[*i..sig_end]);
    let children = match body_idx.map(|b| &tts[b]) {
        Some(Tt::Group { items, .. }) => parse_items(items, cfg_test),
        _ => Vec::new(),
    };
    *i = sig_end + 1;
    Item {
        kind: ItemKind::Impl {
            self_ty,
            trait_name,
        },
        name: String::new(),
        vis,
        line,
        signature,
        children,
        body: None,
        cfg_test,
    }
}

/// Extracts `(self type head, trait head)` from an `impl` header:
/// `impl<T> Trait for Type<T>` → `("Type", Some("Trait"))`;
/// `impl Engine` → `("Engine", None)`.
fn impl_heads(header: &[Tt]) -> (String, Option<String>) {
    // Skip `impl` and an optional generics `<…>` run.
    let mut k = 1usize;
    if header.get(k).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        while k < header.len() {
            if header[k].is_punct('<') {
                depth += 1;
            }
            if header[k].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    k += 1;
                    break;
                }
            }
            k += 1;
        }
    }
    let for_pos = header.iter().position(|t| t.ident() == Some("for"));
    let head_at = |from: usize, to: usize| -> String {
        header[from..to]
            .iter()
            .filter_map(Tt::ident)
            .next_back()
            .map(|s| s.to_string())
            .unwrap_or_default()
    };
    match for_pos {
        Some(p) => {
            // Trait head: last path ident before any `<` between k and p.
            let lt = header[k..p]
                .iter()
                .position(|t| t.is_punct('<'))
                .map(|x| k + x)
                .unwrap_or(p);
            let trait_name = head_at(k, lt);
            let lt2 = header[p + 1..]
                .iter()
                .position(|t| t.is_punct('<'))
                .map(|x| p + 1 + x)
                .unwrap_or(header.len());
            let ty = head_at(p + 1, lt2);
            (ty, Some(trait_name).filter(|s| !s.is_empty()))
        }
        None => {
            let lt = header[k..]
                .iter()
                .position(|t| t.is_punct('<'))
                .map(|x| k + x)
                .unwrap_or(header.len());
            (head_at(k, lt), None)
        }
    }
}

fn parse_mod(tts: &[Tt], i: &mut usize, kw: usize, vis: Vis, cfg_test: bool) -> Item {
    let line = tts[*i].line();
    let name = tts
        .get(kw + 1)
        .and_then(Tt::ident)
        .unwrap_or_default()
        .to_string();
    let (sig_end, body_idx) = find_body(tts, kw);
    let signature = render(&tts[*i..sig_end]);
    let gated = cfg_test || name == "tests" || name == "proptests";
    let (children, inline) = match body_idx.map(|b| &tts[b]) {
        Some(Tt::Group { items, .. }) => (parse_items(items, gated), true),
        _ => (Vec::new(), false),
    };
    *i = sig_end + 1;
    Item {
        kind: ItemKind::Mod { inline },
        name,
        vis,
        line,
        signature,
        children,
        body: None,
        cfg_test,
    }
}

fn parse_simple(
    tts: &[Tt],
    i: &mut usize,
    kw: usize,
    vis: Vis,
    cfg_test: bool,
    kind: ItemKind,
) -> Item {
    let line = tts[*i].line();
    let name = tts
        .get(kw + 1)
        .and_then(Tt::ident)
        .unwrap_or_default()
        .to_string();
    let (sig_end, _) = find_body(tts, kw);
    let signature = render(&tts[*i..sig_end]);
    *i = sig_end + 1;
    Item {
        kind,
        name,
        vis,
        line,
        signature,
        children: Vec::new(),
        body: None,
        cfg_test,
    }
}

/// True when the qualifiers `tts[start..brace]` include `extern` and
/// `tts[brace]` is a brace group: a foreign block (`extern "C" { … }`,
/// optionally `unsafe`).
fn is_foreign_block(tts: &[Tt], start: usize, brace: usize) -> bool {
    tts.get(brace).is_some_and(|t| t.is_group('{'))
        && tts[start..brace]
            .iter()
            .any(|t| t.ident() == Some("extern"))
}

/// A foreign block: its declarations (`fn getrusage(…) -> i32;`) become
/// children, like a module's items, so foreign fns exist in the symbol
/// table under their own names.
fn parse_foreign(tts: &[Tt], i: &mut usize, brace: usize, vis: Vis, cfg_test: bool) -> Item {
    let line = tts[*i].line();
    let signature = render(&tts[*i..brace]);
    let children = match &tts[brace] {
        Tt::Group { items, .. } => parse_items(items, cfg_test),
        Tt::Tok(_) => Vec::new(),
    };
    *i = brace + 1;
    Item {
        kind: ItemKind::Other,
        name: String::new(),
        vis,
        line,
        signature,
        children,
        body: None,
        cfg_test,
    }
}

fn parse_macro_def(tts: &[Tt], i: &mut usize, kw: usize, cfg_test: bool) -> Item {
    let line = tts[*i].line();
    // `macro_rules ! name { … }`
    let name = tts
        .get(kw + 2)
        .and_then(Tt::ident)
        .unwrap_or_default()
        .to_string();
    let (sig_end, body_idx) = find_body(tts, kw);
    let signature = render(&tts[*i..sig_end]);
    *i = body_idx.unwrap_or(sig_end) + 1;
    Item {
        kind: ItemKind::MacroDef,
        name,
        vis: Vis::Private,
        line,
        signature,
        children: Vec::new(),
        body: None,
        cfg_test,
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// A parsed expression. Lines are the first token's.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A (possibly multi-segment) path: `x`, `a::b::c`, `Self::go`.
    Path {
        /// Path segments.
        segs: Vec<String>,
        /// Source line.
        line: u32,
    },
    /// A literal. `float` is true for numeric literals containing `.`
    /// or a float suffix.
    Lit {
        /// True for float-looking numeric literals.
        float: bool,
        /// Source line.
        line: u32,
    },
    /// A prefix operator (`-`, `!`, `*`, `&`).
    Unary {
        /// The operator character.
        op: char,
        /// Operand.
        inner: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// A binary operator.
    Binary {
        /// Operator text (`+`, `-`, `*`, `/`, `==`, `&&`, `..`, `=`, …).
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source line (of the operator).
        line: u32,
    },
    /// `expr as Type`.
    Cast {
        /// The value being cast.
        inner: Box<Expr>,
        /// Rendered target type.
        ty: String,
        /// Source line.
        line: u32,
    },
    /// `callee(args…)`.
    Call {
        /// The called expression (usually a `Path`).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// `recv.method::<T>(args…)`.
    MethodCall {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Rendered turbofish generics, empty when absent.
        turbofish: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// `base.field` (including tuple fields).
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name (tuple index rendered as digits).
        name: String,
        /// Source line.
        line: u32,
    },
    /// `base[index]`.
    Index {
        /// Indexed expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `|…| body` / `move |…| body`.
    Closure {
        /// The closure body.
        body: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `name!(…)` / `path::name!(…)`.
    Macro {
        /// Macro name (last path segment).
        name: String,
        /// Comma-split interior, parsed as expressions.
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// A structural grouping: blocks, `if`/`match`/`for` constructs,
    /// struct literals, tuples — children parsed, shape erased.
    Seq {
        /// Contained expressions.
        exprs: Vec<Expr>,
        /// Source line.
        line: u32,
    },
}

impl Expr {
    /// The source line this expression starts on.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path { line, .. }
            | Expr::Lit { line, .. }
            | Expr::Unary { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Cast { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::Closure { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Seq { line, .. } => *line,
        }
    }

    /// Visits this expression and all sub-expressions, pre-order.
    pub fn visit(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Path { .. } | Expr::Lit { .. } => {}
            Expr::Unary { inner, .. } => inner.visit(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Cast { inner, .. } => inner.visit(f),
            Expr::Call { callee, args, .. } => {
                callee.visit(f);
                for a in args {
                    a.visit(f);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.visit(f);
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Field { base, .. } => base.visit(f),
            Expr::Index { base, index, .. } => {
                base.visit(f);
                index.visit(f);
            }
            Expr::Closure { body, .. } => body.visit(f),
            Expr::Macro { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Seq { exprs, .. } => {
                for e in exprs {
                    e.visit(f);
                }
            }
        }
    }
}

/// Splits a token-tree slice at top-level occurrences of `sep`.
/// Empty segments are dropped.
pub fn split_top(tts: &[Tt], sep: char) -> Vec<&[Tt]> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for (k, t) in tts.iter().enumerate() {
        if t.is_punct(sep) {
            if k > start {
                out.push(&tts[start..k]);
            }
            start = k + 1;
        }
    }
    if start < tts.len() {
        out.push(&tts[start..]);
    }
    out
}

/// Parses a block's interior (statement list) into a `Seq`.
pub fn parse_block(tts: &[Tt]) -> Expr {
    let line = tts.first().map_or(0, Tt::line);
    let mut exprs = Vec::new();
    for stmt in split_top(tts, ';') {
        exprs.push(parse_stmt(stmt));
    }
    Expr::Seq { exprs, line }
}

/// Statement keywords whose "head" parts are patterns/types, not
/// expressions.
fn parse_stmt(tts: &[Tt]) -> Expr {
    let line = tts.first().map_or(0, Tt::line);
    // `let PAT = expr` / `let PAT: Ty = expr` / let-else: parse the
    // initializer; a trailing `else { … }` block is folded in.
    if tts.first().and_then(Tt::ident) == Some("let") {
        if let Some(eq) = find_top_assign(tts) {
            // The pattern may contain const generics etc. — skipped.
            return single_or_seq(vec![parse_expr(&tts[eq + 1..])], line);
        }
        return Expr::Seq {
            exprs: Vec::new(),
            line,
        };
    }
    // Nested items inside fn bodies (helper fns, use, consts): parse
    // helper fn bodies so their calls/sinks are visible.
    if matches!(
        tts.first().and_then(Tt::ident),
        Some("fn" | "use" | "struct" | "impl" | "const" | "static" | "type")
    ) {
        let items = parse_items(tts, false);
        let exprs = items.into_iter().filter_map(|it| it.body).collect();
        return single_or_seq(exprs, line);
    }
    parse_expr(tts)
}

/// Finds the index of a top-level `=` that is an assignment (not `==`,
/// `=>`, `<=`, `>=`, `!=`, `+=` …).
fn find_top_assign(tts: &[Tt]) -> Option<usize> {
    let mut k = 0usize;
    let mut angle = 0i32;
    // Index of the last `>` that closed a generic bracket: the `=` of
    // `let x: Vec<u32> = …` follows one and is an assignment, unlike the
    // `=` of a `>=` comparison (whose `>` never opened a bracket).
    let mut closed_angle_at = usize::MAX;
    while k < tts.len() {
        let t = &tts[k];
        if t.is_punct('<') {
            angle += 1;
        }
        if t.is_punct('>') && angle > 0 {
            angle -= 1;
            closed_angle_at = k;
        }
        if t.is_punct('=') && angle == 0 {
            let next_eq = tts.get(k + 1).is_some_and(|t| t.is_punct('='));
            let next_gt = tts.get(k + 1).is_some_and(|t| t.is_punct('>'));
            let prev_op = k > 0
                && !(closed_angle_at == k - 1 && tts[k - 1].is_punct('>'))
                && matches!(&tts[k - 1], Tt::Tok(s) if matches!(s.tok, Tok::Punct('=' | '<' | '>' | '!' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^')));
            if !next_eq && !next_gt && !prev_op {
                return Some(k);
            }
            if next_eq {
                k += 1;
            }
        }
        k += 1;
    }
    None
}

fn single_or_seq(mut exprs: Vec<Expr>, line: u32) -> Expr {
    if exprs.len() == 1 {
        exprs.pop().unwrap_or(Expr::Seq {
            exprs: Vec::new(),
            line,
        })
    } else {
        Expr::Seq { exprs, line }
    }
}

/// Binary operator precedence (higher binds tighter). `as` casts are
/// handled in the postfix loop.
fn precedence(op: &str) -> Option<u8> {
    Some(match op {
        "*" | "/" | "%" => 10,
        "+" | "-" => 9,
        "<<" | ">>" => 8,
        "&" => 7,
        "^" => 6,
        "|" => 5,
        "==" | "!=" | "<" | ">" | "<=" | ">=" => 4,
        "&&" => 3,
        "||" => 2,
        ".." | "..=" => 1,
        "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>=" => 0,
        _ => return None,
    })
}

/// Parses one expression fragment (no top-level `;`).
pub fn parse_expr(tts: &[Tt]) -> Expr {
    let mut pos = 0usize;
    let e = parse_binary(tts, &mut pos, 0);
    if pos >= tts.len() {
        return e;
    }
    // Trailing unparsed trees (match arms, else-chains, …): parse each
    // remaining tree structurally so nothing is lost.
    let line = e.line();
    let mut exprs = vec![e];
    while pos < tts.len() {
        exprs.push(parse_primary_tree(&tts[pos..], &mut pos_adapter(&mut pos)));
    }
    Expr::Seq { exprs, line }
}

// Helper so parse_primary_tree can advance the outer cursor while
// receiving a window slice.
fn pos_adapter(pos: &mut usize) -> impl FnMut(usize) + '_ {
    move |n| *pos += n
}

fn parse_primary_tree(window: &[Tt], advance: &mut impl FnMut(usize)) -> Expr {
    let mut local = 0usize;
    let e = parse_unary_postfix(window, &mut local);
    advance(local.max(1));
    e
}

/// Multi-character operator starting at `k`; returns (op, token count).
fn peek_op(tts: &[Tt], k: usize) -> Option<(String, usize)> {
    let c0 = match &tts.get(k)? {
        Tt::Tok(s) => match s.tok {
            Tok::Punct(c) => c,
            _ => return None,
        },
        _ => return None,
    };
    let c1 = tts.get(k + 1).and_then(|t| match t {
        Tt::Tok(s) => match s.tok {
            Tok::Punct(c) => Some(c),
            _ => None,
        },
        _ => None,
    });
    let c2 = tts.get(k + 2).and_then(|t| match t {
        Tt::Tok(s) => match s.tok {
            Tok::Punct(c) => Some(c),
            _ => None,
        },
        _ => None,
    });
    let two = |a: char, b: char| c0 == a && c1 == Some(b);
    if two('.', '.') {
        return if c2 == Some('=') {
            Some(("..=".into(), 3))
        } else {
            Some(("..".into(), 2))
        };
    }
    for (a, b, s) in [
        ('=', '=', "=="),
        ('!', '=', "!="),
        ('<', '=', "<="),
        ('>', '=', ">="),
        ('&', '&', "&&"),
        ('|', '|', "||"),
        ('<', '<', "<<"),
        ('>', '>', ">>"),
        ('+', '=', "+="),
        ('-', '=', "-="),
        ('*', '=', "*="),
        ('/', '=', "/="),
        ('%', '=', "%="),
    ] {
        if two(a, b) {
            // `<<=` / `>>=`
            if (s == "<<" || s == ">>") && c2 == Some('=') {
                return Some((format!("{s}="), 3));
            }
            return Some((s.into(), 2));
        }
    }
    if matches!(
        c0,
        '+' | '-' | '*' | '/' | '%' | '<' | '>' | '&' | '|' | '^' | '='
    ) {
        // `=>` is an arm arrow, not an operator.
        if c0 == '=' && c1 == Some('>') {
            return None;
        }
        return Some((c0.to_string(), 1));
    }
    None
}

fn parse_binary(tts: &[Tt], pos: &mut usize, min_prec: u8) -> Expr {
    let mut lhs = parse_unary_postfix(tts, pos);
    while let Some((op, n)) = peek_op(tts, *pos) {
        let Some(prec) = precedence(&op) else { break };
        if prec < min_prec {
            break;
        }
        let line = tts[*pos].line();
        *pos += n;
        if *pos >= tts.len() {
            // Trailing operator (`0..` range) — keep lhs.
            break;
        }
        let rhs = parse_binary(tts, pos, prec + 1);
        lhs = Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            line,
        };
    }
    lhs
}

fn parse_unary_postfix(tts: &[Tt], pos: &mut usize) -> Expr {
    let Some(first) = tts.get(*pos) else {
        return Expr::Seq {
            exprs: Vec::new(),
            line: 0,
        };
    };
    let line = first.line();
    // Prefix operators.
    if let Tt::Tok(s) = first {
        if let Tok::Punct(c @ ('-' | '!' | '*' | '&')) = s.tok {
            *pos += 1;
            // `&mut x`
            if tts.get(*pos).and_then(Tt::ident) == Some("mut") {
                *pos += 1;
            }
            let inner = parse_unary_postfix(tts, pos);
            return Expr::Unary {
                op: c,
                inner: Box::new(inner),
                line,
            };
        }
    }
    let mut e = parse_primary(tts, pos);
    // Postfix loop.
    loop {
        match tts.get(*pos) {
            // `.method(…)`, `.field`, `.await`, `.0`
            Some(t) if t.is_punct('.') => {
                // Stop at `..` range (handled as binary).
                if tts.get(*pos + 1).is_some_and(|t| t.is_punct('.')) {
                    break;
                }
                let dline = t.line();
                *pos += 1;
                match tts.get(*pos) {
                    Some(Tt::Tok(s)) => match &s.tok {
                        Tok::Ident(name) => {
                            let name = name.clone();
                            *pos += 1;
                            // Turbofish `::<…>`.
                            let mut turbofish = String::new();
                            if tts.get(*pos).is_some_and(|t| t.is_punct(':'))
                                && tts.get(*pos + 1).is_some_and(|t| t.is_punct(':'))
                                && tts.get(*pos + 2).is_some_and(|t| t.is_punct('<'))
                            {
                                let start = *pos + 2;
                                let mut k = start;
                                let mut depth = 0i32;
                                while k < tts.len() {
                                    if tts[k].is_punct('<') {
                                        depth += 1;
                                    }
                                    if tts[k].is_punct('>') {
                                        depth -= 1;
                                        if depth == 0 {
                                            break;
                                        }
                                    }
                                    k += 1;
                                }
                                turbofish = render(&tts[start..=k.min(tts.len() - 1)]);
                                *pos = (k + 1).min(tts.len());
                            }
                            if tts.get(*pos).is_some_and(|t| t.is_group('(')) {
                                let args = match &tts[*pos] {
                                    Tt::Group { items, .. } => {
                                        split_top(items, ',').into_iter().map(parse_expr).collect()
                                    }
                                    _ => Vec::new(),
                                };
                                *pos += 1;
                                e = Expr::MethodCall {
                                    recv: Box::new(e),
                                    method: name,
                                    turbofish,
                                    args,
                                    line: dline,
                                };
                            } else {
                                e = Expr::Field {
                                    base: Box::new(e),
                                    name,
                                    line: dline,
                                };
                            }
                        }
                        Tok::Num(n) => {
                            let name = n.clone();
                            *pos += 1;
                            e = Expr::Field {
                                base: Box::new(e),
                                name,
                                line: dline,
                            };
                        }
                        _ => break,
                    },
                    _ => break,
                }
            }
            // Call.
            Some(t) if t.is_group('(') => {
                let args = match t {
                    Tt::Group { items, .. } => {
                        split_top(items, ',').into_iter().map(parse_expr).collect()
                    }
                    _ => Vec::new(),
                };
                let cline = t.line();
                *pos += 1;
                e = Expr::Call {
                    callee: Box::new(e),
                    args,
                    line: cline,
                };
            }
            // Index.
            Some(t) if t.is_group('[') => {
                let idx = match t {
                    Tt::Group { items, .. } => parse_expr(items),
                    _ => Expr::Seq {
                        exprs: Vec::new(),
                        line: 0,
                    },
                };
                let iline = t.line();
                *pos += 1;
                e = Expr::Index {
                    base: Box::new(e),
                    index: Box::new(idx),
                    line: iline,
                };
            }
            // `?`
            Some(t) if t.is_punct('?') => {
                *pos += 1;
            }
            // `as Type`
            Some(t) if t.ident() == Some("as") => {
                let cline = t.line();
                *pos += 1;
                let start = *pos;
                // A type: idents, `::`, generics, `&`, lifetimes — stop
                // at anything else.
                let mut depth = 0i32;
                while *pos < tts.len() {
                    let t = &tts[*pos];
                    let ok = match t {
                        Tt::Tok(s) => match &s.tok {
                            Tok::Ident(_) | Tok::Lifetime => true,
                            Tok::Punct('<') => {
                                depth += 1;
                                true
                            }
                            Tok::Punct('>') => {
                                if depth == 0 {
                                    false
                                } else {
                                    depth -= 1;
                                    true
                                }
                            }
                            Tok::Punct(':' | '&' | '*') => true,
                            _ => false,
                        },
                        Tt::Group { open, .. } => *open == '[' && *pos == start,
                    };
                    if !ok {
                        break;
                    }
                    *pos += 1;
                    // A bare path type ends after its last ident unless
                    // `::`/`<` follows; simple heuristic: stop when next
                    // token is not `:`/`<` and current was an ident.
                    if tts[*pos - 1].ident().is_some()
                        && !matches!(tts.get(*pos), Some(t) if t.is_punct(':') || t.is_punct('<'))
                        && depth == 0
                    {
                        break;
                    }
                }
                let ty = render(&tts[start..*pos]);
                e = Expr::Cast {
                    inner: Box::new(e),
                    ty,
                    line: cline,
                };
            }
            _ => break,
        }
    }
    e
}

/// Expression-position keywords handled structurally.
const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "match", "for", "while", "loop", "unsafe", "return", "break", "continue", "move",
    "async", "let", "in", "await", "dyn", "ref", "mut", "where",
];

fn parse_primary(tts: &[Tt], pos: &mut usize) -> Expr {
    let Some(first) = tts.get(*pos) else {
        return Expr::Seq {
            exprs: Vec::new(),
            line: 0,
        };
    };
    let line = first.line();
    match first {
        Tt::Group {
            open: '(', items, ..
        } => {
            *pos += 1;
            let parts: Vec<Expr> = split_top(items, ',').into_iter().map(parse_expr).collect();
            single_or_seq(parts, line)
        }
        Tt::Group {
            open: '{', items, ..
        } => {
            *pos += 1;
            parse_block(items)
        }
        Tt::Group { items, .. } => {
            // Array literal `[a, b]` / `[x; n]` (no other group opener
            // reaches primary position — `(` and `{` matched above).
            *pos += 1;
            let parts: Vec<Expr> = split_top(items, ',')
                .into_iter()
                .flat_map(|p| split_top(p, ';'))
                .map(parse_expr)
                .collect();
            Expr::Seq { exprs: parts, line }
        }
        Tt::Tok(s) => match &s.tok {
            Tok::Num(n) => {
                *pos += 1;
                let float = n.contains('.') || n.contains("f3") || n.contains("f6");
                Expr::Lit { float, line }
            }
            Tok::Str(_) | Tok::CharLit => {
                *pos += 1;
                Expr::Lit { float: false, line }
            }
            Tok::Lifetime => {
                // Loop label `'a: loop { … }`.
                *pos += 1;
                if tts.get(*pos).is_some_and(|t| t.is_punct(':')) {
                    *pos += 1;
                }
                parse_primary(tts, pos)
            }
            Tok::Punct('|') => parse_closure(tts, pos, line),
            Tok::Punct('#') => {
                // Expression attribute — skip `#[…]`.
                *pos += 1;
                if tts.get(*pos).is_some_and(|t| t.is_group('[')) {
                    *pos += 1;
                }
                parse_primary(tts, pos)
            }
            Tok::Punct(_) => {
                // Something we don't model — consume and move on.
                *pos += 1;
                Expr::Seq {
                    exprs: Vec::new(),
                    line,
                }
            }
            Tok::Ident(id) => match id.as_str() {
                "if" | "while" => parse_cond_construct(tts, pos, line),
                "match" => parse_match(tts, pos, line),
                "for" => parse_for(tts, pos, line),
                "loop" | "unsafe" | "else" => {
                    *pos += 1;
                    // `else if` chains re-enter here naturally.
                    if tts.get(*pos).is_some_and(|t| t.is_group('{')) {
                        let block = match &tts[*pos] {
                            Tt::Group { items, .. } => parse_block(items),
                            _ => Expr::Seq {
                                exprs: Vec::new(),
                                line,
                            },
                        };
                        *pos += 1;
                        block
                    } else {
                        parse_primary(tts, pos)
                    }
                }
                "return" | "break" | "continue" => {
                    *pos += 1;
                    if *pos < tts.len() && !tts[*pos].is_punct(',') {
                        let inner = parse_binary(tts, pos, 0);
                        Expr::Seq {
                            exprs: vec![inner],
                            line,
                        }
                    } else {
                        Expr::Seq {
                            exprs: Vec::new(),
                            line,
                        }
                    }
                }
                "move" => {
                    *pos += 1;
                    parse_primary(tts, pos)
                }
                "let" => {
                    // `if let PAT = expr` arrives here with `let` first.
                    *pos += 1;
                    // Skip to the top-level `=` then parse the rhs.
                    while *pos < tts.len() && !tts[*pos].is_punct('=') {
                        *pos += 1;
                    }
                    if *pos < tts.len() {
                        *pos += 1;
                    }
                    parse_binary(tts, pos, 1)
                }
                _ => parse_path_like(tts, pos, line),
            },
        },
    }
}

fn parse_closure(tts: &[Tt], pos: &mut usize, line: u32) -> Expr {
    // `|params| body` — find the closing `|` (params contain no `|`
    // except inside groups, which the tree layer already nests).
    *pos += 1; // opening `|`
    if tts.get(*pos).is_some_and(|t| t.is_punct('|')) {
        // `||` zero-arg closure arrives as two puncts.
        *pos += 1;
    } else {
        while *pos < tts.len() && !tts[*pos].is_punct('|') {
            *pos += 1;
        }
        *pos += 1; // closing `|`
    }
    // Optional `-> Type` before a brace body.
    if tts.get(*pos).is_some_and(|t| t.is_punct('-'))
        && tts.get(*pos + 1).is_some_and(|t| t.is_punct('>'))
    {
        *pos += 2;
        while *pos < tts.len() && !tts[*pos].is_group('{') {
            *pos += 1;
        }
    }
    let body = parse_binary(tts, pos, 0);
    Expr::Closure {
        body: Box::new(body),
        line,
    }
}

/// `if cond { … } [else …]` / `while cond { … }` — in condition
/// position `{` always opens the block (Rust forbids bare struct
/// literals there), so scan to the first top-level brace group.
fn parse_cond_construct(tts: &[Tt], pos: &mut usize, line: u32) -> Expr {
    *pos += 1; // keyword
    let cond_start = *pos;
    while *pos < tts.len() && !tts[*pos].is_group('{') {
        *pos += 1;
    }
    let cond = parse_expr(&tts[cond_start..*pos]);
    let mut exprs = vec![cond];
    if let Some(Tt::Group { items, .. }) = tts.get(*pos) {
        exprs.push(parse_block(items));
        *pos += 1;
    }
    // `else` chain.
    while tts.get(*pos).and_then(Tt::ident) == Some("else") {
        *pos += 1;
        match tts.get(*pos) {
            Some(Tt::Group {
                open: '{', items, ..
            }) => {
                exprs.push(parse_block(items));
                *pos += 1;
            }
            Some(Tt::Tok(s)) if s.is_ident("if") => {
                exprs.push(parse_cond_construct(tts, pos, line));
            }
            _ => break,
        }
    }
    Expr::Seq { exprs, line }
}

fn parse_match(tts: &[Tt], pos: &mut usize, line: u32) -> Expr {
    *pos += 1; // `match`
    let scrut_start = *pos;
    while *pos < tts.len() && !tts[*pos].is_group('{') {
        *pos += 1;
    }
    let scrut = parse_expr(&tts[scrut_start..*pos]);
    let mut exprs = vec![scrut];
    if let Some(Tt::Group { items, .. }) = tts.get(*pos) {
        exprs.extend(parse_match_arms(items));
        *pos += 1;
    }
    Expr::Seq { exprs, line }
}

/// Parses match arms: `PAT [if guard] => expr [,]`. Patterns are
/// skipped; guards and arm bodies are parsed.
fn parse_match_arms(tts: &[Tt]) -> Vec<Expr> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < tts.len() {
        // Find `=>`.
        let mut arrow = None;
        let mut guard_at = None;
        let mut m = k;
        while m < tts.len() {
            if tts[m].is_punct('=') && tts.get(m + 1).is_some_and(|t| t.is_punct('>')) {
                arrow = Some(m);
                break;
            }
            if tts[m].ident() == Some("if") && guard_at.is_none() {
                guard_at = Some(m);
            }
            m += 1;
        }
        let Some(arrow) = arrow else { break };
        if let Some(g) = guard_at {
            out.push(parse_expr(&tts[g + 1..arrow]));
        }
        let body_start = arrow + 2;
        // Arm body: a single brace group, or a fragment up to the next
        // top-level `,`.
        if tts.get(body_start).is_some_and(|t| t.is_group('{')) {
            if let Some(Tt::Group { items, .. }) = tts.get(body_start) {
                out.push(parse_block(items));
            }
            k = body_start + 1;
            if tts.get(k).is_some_and(|t| t.is_punct(',')) {
                k += 1;
            }
        } else {
            let mut end = body_start;
            while end < tts.len() && !tts[end].is_punct(',') {
                end += 1;
            }
            out.push(parse_expr(&tts[body_start..end]));
            k = end + 1;
        }
    }
    out
}

fn parse_for(tts: &[Tt], pos: &mut usize, line: u32) -> Expr {
    *pos += 1; // `for`
               // Skip the pattern up to `in`.
    while *pos < tts.len() && tts[*pos].ident() != Some("in") {
        *pos += 1;
    }
    *pos += 1; // `in`
    let iter_start = *pos;
    while *pos < tts.len() && !tts[*pos].is_group('{') {
        *pos += 1;
    }
    let iter = parse_expr(&tts[iter_start..*pos]);
    let mut exprs = vec![iter];
    if let Some(Tt::Group { items, .. }) = tts.get(*pos) {
        exprs.push(parse_block(items));
        *pos += 1;
    }
    Expr::Seq { exprs, line }
}

/// Paths, macro calls and struct literals.
fn parse_path_like(tts: &[Tt], pos: &mut usize, line: u32) -> Expr {
    let mut segs = Vec::new();
    loop {
        match tts.get(*pos).and_then(Tt::ident) {
            Some(id) if !EXPR_KEYWORDS.contains(&id) => {
                segs.push(id.to_string());
                *pos += 1;
            }
            _ => break,
        }
        // `::` continues the path; `::<` is a turbofish in path position.
        if tts.get(*pos).is_some_and(|t| t.is_punct(':'))
            && tts.get(*pos + 1).is_some_and(|t| t.is_punct(':'))
        {
            if tts.get(*pos + 2).is_some_and(|t| t.is_punct('<')) {
                // Skip the turbofish.
                let mut k = *pos + 2;
                let mut depth = 0i32;
                while k < tts.len() {
                    if tts[k].is_punct('<') {
                        depth += 1;
                    }
                    if tts[k].is_punct('>') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                *pos = (k + 1).min(tts.len());
                break;
            }
            *pos += 2;
            continue;
        }
        break;
    }
    // Macro call: `name!( … )` / `name![…]` / `name!{…}`.
    if tts.get(*pos).is_some_and(|t| t.is_punct('!')) {
        if let Some(Tt::Group { items, .. }) = tts.get(*pos + 1) {
            let args = split_top(items, ',').into_iter().map(parse_expr).collect();
            *pos += 2;
            return Expr::Macro {
                name: segs.last().cloned().unwrap_or_default(),
                args,
                line,
            };
        }
    }
    // Struct literal: `Path { field: expr, … }` — heads are
    // capitalized (or `Self`), which keeps `x { … }` blocks unambiguous
    // enough for a lint parser.
    if tts.get(*pos).is_some_and(|t| t.is_group('{'))
        && segs
            .last()
            .is_some_and(|s| s.chars().next().is_some_and(char::is_uppercase))
    {
        if let Some(Tt::Group { items, .. }) = tts.get(*pos) {
            let mut exprs = Vec::new();
            for field in split_top(items, ',') {
                // `name: expr` / shorthand `name` / `..base`.
                match field.iter().position(|t| t.is_punct(':')) {
                    Some(c) => exprs.push(parse_expr(&field[c + 1..])),
                    None => exprs.push(parse_expr(field)),
                }
            }
            *pos += 1;
            return Expr::Seq { exprs, line };
        }
    }
    if segs.is_empty() {
        *pos += 1;
        return Expr::Seq {
            exprs: Vec::new(),
            line,
        };
    }
    Expr::Path { segs, line }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&tokenize(src))
    }

    #[test]
    fn items_and_visibility_parse() {
        let f = parse(
            "pub fn a() {}\nfn b() {}\npub(crate) struct S { pub x: u32, y: f64 }\npub mod m { pub fn c() {} }\n",
        );
        assert_eq!(f.items.len(), 4);
        assert_eq!(f.items[0].name, "a");
        assert_eq!(f.items[0].vis, Vis::Pub);
        assert_eq!(f.items[1].vis, Vis::Private);
        assert_eq!(f.items[2].vis, Vis::Scoped);
        let fields = &f.items[2].children;
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].name, "x");
        assert_eq!(fields[0].vis, Vis::Pub);
        assert_eq!(f.items[3].children[0].name, "c");
    }

    #[test]
    fn impl_heads_resolve() {
        let f = parse("impl<'a> Engine<'a> { pub fn run(&self) {} }\nimpl Clone for Engine<'_> { fn clone(&self) -> Self { todo!() } }");
        match &f.items[0].kind {
            ItemKind::Impl {
                self_ty,
                trait_name,
            } => {
                assert_eq!(self_ty, "Engine");
                assert!(trait_name.is_none());
            }
            k => panic!("{k:?}"),
        }
        match &f.items[1].kind {
            ItemKind::Impl {
                self_ty,
                trait_name,
            } => {
                assert_eq!(self_ty, "Engine");
                assert_eq!(trait_name.as_deref(), Some("Clone"));
            }
            k => panic!("{k:?}"),
        }
    }

    #[test]
    fn cfg_test_gates_items_and_inline_mods() {
        let f = parse("#[cfg(test)]\nmod tests { fn t() {} }\nfn live() {}");
        assert!(f.items[0].cfg_test);
        assert!(f.items[0].children[0].cfg_test);
        assert!(!f.items[1].cfg_test);
    }

    #[test]
    fn foreign_blocks_keep_their_fns() {
        let f = parse(
            "extern \"C\" {\n    fn getrusage(who: i32, usage: *mut Rusage) -> i32;\n}\n\
             unsafe extern \"C\" { pub fn abs(x: i32) -> i32; }\n\
             extern \"C\" fn callback() {}\nfn after() {}",
        );
        assert_eq!(f.items.len(), 4);
        for (block, name) in [(&f.items[0], "getrusage"), (&f.items[1], "abs")] {
            assert!(matches!(block.kind, ItemKind::Other));
            assert_eq!(block.children.len(), 1);
            let decl = &block.children[0];
            assert!(matches!(decl.kind, ItemKind::Fn));
            assert_eq!(decl.name, name);
            assert!(decl.body.is_none());
        }
        assert!(matches!(f.items[2].kind, ItemKind::Fn));
        assert_eq!(f.items[2].name, "callback");
        assert_eq!(f.items[3].name, "after");
    }

    #[test]
    fn method_chains_parse() {
        let f = parse("fn f(v: &[f64]) -> f64 { v.iter().copied().sum::<f64>() }");
        let body = f.items[0].body.as_ref().unwrap();
        let mut methods = Vec::new();
        body.visit(&mut |e| {
            if let Expr::MethodCall {
                method, turbofish, ..
            } = e
            {
                methods.push((method.clone(), turbofish.clone()));
            }
        });
        assert_eq!(methods.len(), 3);
        assert_eq!(methods[0].0, "sum");
        assert!(methods[0].1.contains("f64"), "{methods:?}");
    }

    #[test]
    fn binary_and_index_structure() {
        let f = parse("fn f(v: &[f64], i: usize) -> f64 { v[i + 1] + v[0] }");
        let body = f.items[0].body.as_ref().unwrap();
        let mut indexed_arith = 0;
        body.visit(&mut |e| {
            if let Expr::Index { index, .. } = e {
                if matches!(**index, Expr::Binary { .. }) {
                    indexed_arith += 1;
                }
            }
        });
        assert_eq!(indexed_arith, 1);
    }

    #[test]
    fn casts_and_closures_parse() {
        let f = parse("fn f(x: f64) -> f32 { let g = |y: f64| y as f32; g(x) }");
        let body = f.items[0].body.as_ref().unwrap();
        let mut casts = Vec::new();
        let mut closures = 0;
        body.visit(&mut |e| match e {
            Expr::Cast { ty, .. } => casts.push(ty.clone()),
            Expr::Closure { .. } => closures += 1,
            _ => {}
        });
        assert_eq!(casts, vec!["f32"]);
        assert_eq!(closures, 1);
    }

    #[test]
    fn match_arms_and_macros_parse() {
        let src = r#"
            fn f(x: Option<u32>) -> u32 {
                match x {
                    Some(v) if v > 0 => v.checked_mul(2).unwrap(),
                    _ => panic!("boom"),
                }
            }
        "#;
        let f = parse(src);
        let body = f.items[0].body.as_ref().unwrap();
        let mut saw_unwrap = false;
        let mut saw_panic = false;
        body.visit(&mut |e| match e {
            Expr::MethodCall { method, .. } if method == "unwrap" => saw_unwrap = true,
            Expr::Macro { name, .. } if name == "panic" => saw_panic = true,
            _ => {}
        });
        assert!(saw_unwrap && saw_panic);
    }

    #[test]
    fn signatures_render_canonically() {
        let f = parse("pub   fn  run_controlled ( &self , ctl : RunControl ) -> RunOutcome { }");
        assert_eq!(
            f.items[0].signature,
            "pub fn run_controlled(&self, ctl: RunControl) -> RunOutcome"
        );
    }
}

//! A minimal, std-only reader for the PNML interchange format
//! (ISO/IEC 15909-2), covering the place/transition subset that the
//! Model Checking Contest corpus uses: `pnmlcoremodel` / `ptnet` nets
//! with places, transitions, arcs, `<initialMarking>` values and nested
//! `<page>` elements. Graphics, tool-specific annotations, comments and
//! CDATA sections are skipped.
//!
//! Node *ids* become the place/transition names (ids are the unique,
//! referenceable identifiers in PNML; `<name>` labels are free-form and
//! frequently duplicated across a net). The net's `id` attribute becomes
//! the net name, falling back to `pnml` when absent.
//!
//! Because the engines in this crate operate on 1-safe nets, an
//! `<initialMarking>` of 2 or more or an arc `<inscription>` weight above
//! 1 is rejected with a clear error rather than silently truncated.
//!
//! # Examples
//!
//! ```
//! let net = petri::parse_pnml(r#"
//!   <pnml><net id="toggle"><page>
//!     <place id="on"><initialMarking><text>1</text></initialMarking></place>
//!     <place id="off"/>
//!     <transition id="flip"/>
//!     <arc id="a1" source="on" target="flip"/>
//!     <arc id="a2" source="flip" target="off"/>
//!   </page></net></pnml>"#).unwrap();
//! assert_eq!(net.name(), "toggle");
//! assert_eq!((net.place_count(), net.transition_count()), (2, 1));
//! ```

use crate::error::NetError;
use crate::net::{NetBuilder, PetriNet};

/// Parses a PNML document into a [`PetriNet`].
///
/// # Errors
///
/// Returns [`NetError::Parse`] (with 1-based line/column of the offending
/// construct) on malformed XML, missing ids, arcs between two places or
/// two transitions, unknown arc endpoints, or markings/weights that
/// exceed 1-safety. Duplicate ids surface as [`NetError::DuplicateName`].
pub fn parse_pnml(input: &str) -> Result<PetriNet, NetError> {
    let mut scanner = Scanner::new(input);
    let mut doc = Document::default();
    doc.scan(&mut scanner)?;
    doc.build()
}

/// `true` when `text` looks like a PNML document rather than the native
/// `.net` format: its first markup construct is an XML tag.
pub fn looks_like_pnml(text: &str) -> bool {
    text.trim_start().starts_with('<')
}

#[derive(Debug, Default)]
struct Document {
    net_name: Option<String>,
    /// (id, initially_marked)
    places: Vec<(String, bool)>,
    transitions: Vec<String>,
    /// (source, target, line, column) — resolved after the scan
    arcs: Vec<(String, String, usize, usize)>,
}

impl Document {
    /// Walks the token stream, collecting the first `<net>` element.
    fn scan(&mut self, s: &mut Scanner) -> Result<(), NetError> {
        // the open-element stack, used both for well-formedness and to
        // know what a `<text>` value belongs to
        let mut stack: Vec<String> = Vec::new();
        let mut in_net = false;
        let mut done = false;
        // the node currently being populated
        let mut place: Option<(String, bool)> = None;
        let mut arc: Option<(String, String, usize, usize)> = None;

        while let Some(ev) = s.next_event()? {
            match ev {
                Event::Open {
                    name,
                    attrs,
                    self_closing,
                    line,
                    column,
                } => {
                    // subtrees we never look into
                    if matches!(name.as_str(), "graphics" | "toolspecific") {
                        if !self_closing {
                            s.skip_subtree(&name)?;
                        }
                        continue;
                    }
                    if name == "net" {
                        if done {
                            // only the first <net> of a document is read
                            s.skip_subtree(&name)?;
                            continue;
                        }
                        in_net = true;
                        self.net_name = attr(&attrs, "id").map(str::to_string);
                    }
                    if in_net {
                        match name.as_str() {
                            "place" => {
                                let id = require_id(&attrs, "place", line, column)?;
                                place = Some((id, false));
                            }
                            "transition" => {
                                let id = require_id(&attrs, "transition", line, column)?;
                                self.transitions.push(id);
                            }
                            "arc" => {
                                let src = attr(&attrs, "source").ok_or_else(|| {
                                    missing(line, column, "arc is missing a `source` attribute")
                                })?;
                                let tgt = attr(&attrs, "target").ok_or_else(|| {
                                    missing(line, column, "arc is missing a `target` attribute")
                                })?;
                                arc = Some((src.to_string(), tgt.to_string(), line, column));
                            }
                            _ => {}
                        }
                    }
                    if self_closing {
                        match name.as_str() {
                            "place" => self.places.push(place.take().expect("just set")),
                            "arc" => self.arcs.push(arc.take().expect("just set")),
                            "net" if in_net => {
                                in_net = false;
                                done = true;
                            }
                            _ => {}
                        }
                    } else {
                        stack.push(name);
                    }
                }
                Event::Close { name, line, column } => {
                    match stack.pop() {
                        Some(open) if open == name => {}
                        Some(open) => {
                            return Err(missing(
                                line,
                                column,
                                &format!(
                                    "mismatched close tag `</{name}>` (open element is `<{open}>`)"
                                ),
                            ))
                        }
                        None => {
                            return Err(missing(
                                line,
                                column,
                                &format!("close tag `</{name}>` with no open element"),
                            ))
                        }
                    }
                    match name.as_str() {
                        "place" => {
                            if let Some(p) = place.take() {
                                self.places.push(p);
                            }
                        }
                        "arc" => {
                            if let Some(a) = arc.take() {
                                self.arcs.push(a);
                            }
                        }
                        "net" if in_net => {
                            in_net = false;
                            done = true;
                        }
                        _ => {}
                    }
                }
                Event::Text {
                    value,
                    line,
                    column,
                } => {
                    let value = value.trim();
                    if value.is_empty() {
                        continue;
                    }
                    // a <text> value is interpreted by its grandparent:
                    // place > initialMarking > text, arc > inscription > text
                    let parent = stack.iter().rev().nth(1).map(String::as_str);
                    let leaf = stack.last().map(String::as_str);
                    match (parent, leaf) {
                        (Some("initialMarking"), Some("text")) => {
                            let tokens: u64 = value.parse().map_err(|_| {
                                missing(
                                    line,
                                    column,
                                    &format!("initial marking `{value}` is not a number"),
                                )
                            })?;
                            if tokens > 1 {
                                return Err(missing(
                                    line,
                                    column,
                                    &format!("initial marking of {tokens} tokens: this checker handles 1-safe nets only"),
                                ));
                            }
                            if let Some((_, marked)) = place.as_mut() {
                                *marked = tokens == 1;
                            }
                        }
                        (Some("inscription"), Some("text")) => {
                            let weight: u64 = value.parse().unwrap_or(1);
                            if weight > 1 {
                                return Err(missing(
                                    line,
                                    column,
                                    &format!("arc weight {weight}: this checker handles 1-safe (weight-1) nets only"),
                                ));
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        if let Some(open) = stack.last() {
            return Err(missing(
                s.line(),
                s.column(),
                &format!("unclosed element `<{open}>` at end of input"),
            ));
        }
        if !done {
            return Err(missing(
                s.line(),
                s.column(),
                "document has no `<net>` element",
            ));
        }
        Ok(())
    }

    fn build(self) -> Result<PetriNet, NetError> {
        let mut b = NetBuilder::new(self.net_name.as_deref().unwrap_or("pnml"));
        let mut place_ids = std::collections::HashMap::new();
        for (name, marked) in &self.places {
            let id = if *marked {
                b.place_marked(name.clone())
            } else {
                b.place(name.clone())
            };
            place_ids.insert(name.clone(), id);
        }
        // arcs are attributes of <arc> elements, so pre/post sets are only
        // known once the whole net is scanned
        let mut pre: Vec<Vec<crate::ids::PlaceId>> = vec![Vec::new(); self.transitions.len()];
        let mut post: Vec<Vec<crate::ids::PlaceId>> = vec![Vec::new(); self.transitions.len()];
        let mut transition_ix = std::collections::HashMap::new();
        for (i, name) in self.transitions.iter().enumerate() {
            transition_ix.insert(name.clone(), i);
        }
        for (src, tgt, line, column) in &self.arcs {
            match (
                place_ids.get(src),
                transition_ix.get(src),
                place_ids.get(tgt),
                transition_ix.get(tgt),
            ) {
                (Some(&p), None, None, Some(&t)) => pre[t].push(p),
                (None, Some(&t), Some(&p), None) => post[t].push(p),
                (None, None, _, _) => {
                    return Err(missing(
                        *line,
                        *column,
                        &format!("arc source `{src}` is not a declared place or transition"),
                    ))
                }
                (_, _, None, None) => {
                    return Err(missing(
                        *line,
                        *column,
                        &format!("arc target `{tgt}` is not a declared place or transition"),
                    ))
                }
                _ => {
                    return Err(missing(
                        *line,
                        *column,
                        &format!("arc `{src}` -> `{tgt}` must connect a place and a transition"),
                    ))
                }
            }
        }
        for ((name, pre), post) in self.transitions.iter().zip(pre).zip(post) {
            b.transition(name.clone(), pre, post);
        }
        b.build()
    }
}

fn attr<'a>(attrs: &'a [(String, String)], name: &str) -> Option<&'a str> {
    attrs
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn require_id(
    attrs: &[(String, String)],
    what: &str,
    line: usize,
    column: usize,
) -> Result<String, NetError> {
    attr(attrs, "id").map(str::to_string).ok_or_else(|| {
        missing(
            line,
            column,
            &format!("{what} is missing an `id` attribute"),
        )
    })
}

fn missing(line: usize, column: usize, message: &str) -> NetError {
    NetError::Parse {
        line,
        column,
        message: message.to_string(),
    }
}

// ---------------------------------------------------------------------
// XML subset scanner
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Event {
    Open {
        name: String,
        attrs: Vec<(String, String)>,
        self_closing: bool,
        line: usize,
        column: usize,
    },
    Close {
        name: String,
        line: usize,
        column: usize,
    },
    Text {
        value: String,
        line: usize,
        column: usize,
    },
}

struct Scanner {
    chars: Vec<char>,
    pos: usize,
}

impl Scanner {
    fn new(text: &str) -> Self {
        Scanner {
            chars: text.chars().collect(),
            pos: 0,
        }
    }

    fn line(&self) -> usize {
        1 + self.chars[..self.pos.min(self.chars.len())]
            .iter()
            .filter(|&&c| c == '\n')
            .count()
    }

    fn column(&self) -> usize {
        let upto = &self.chars[..self.pos.min(self.chars.len())];
        match upto.iter().rposition(|&c| c == '\n') {
            Some(nl) => upto.len() - nl,
            None => upto.len() + 1,
        }
    }

    fn err(&self, message: &str) -> NetError {
        missing(self.line(), self.column(), message)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.chars[self.pos.min(self.chars.len())..]
            .iter()
            .zip(s.chars())
            .filter(|(a, b)| **a == *b)
            .count()
            == s.chars().count()
    }

    fn skip_past(&mut self, terminator: &str) -> Result<(), NetError> {
        while self.pos < self.chars.len() {
            if self.starts_with(terminator) {
                self.pos += terminator.chars().count();
                return Ok(());
            }
            self.pos += 1;
        }
        Err(self.err(&format!("unterminated construct (expected `{terminator}`)")))
    }

    /// Produces the next event, or `None` at end of input.
    fn next_event(&mut self) -> Result<Option<Event>, NetError> {
        loop {
            let Some(c) = self.peek() else {
                return Ok(None);
            };
            if c != '<' {
                // text run up to the next tag
                let line = self.line();
                let column = self.column();
                let start = self.pos;
                while self.peek().is_some_and(|c| c != '<') {
                    self.pos += 1;
                }
                let raw: String = self.chars[start..self.pos].iter().collect();
                if raw.trim().is_empty() {
                    continue;
                }
                return Ok(Some(Event::Text {
                    value: decode_entities(&raw),
                    line,
                    column,
                }));
            }
            // a markup construct
            if self.starts_with("<!--") {
                self.skip_past("-->")?;
                continue;
            }
            if self.starts_with("<![CDATA[") {
                self.skip_past("]]>")?;
                continue;
            }
            if self.starts_with("<?") || self.starts_with("<!") {
                self.skip_past(">")?;
                continue;
            }
            let line = self.line();
            let column = self.column();
            self.pos += 1; // consume `<`
            let closing = self.peek() == Some('/');
            if closing {
                self.pos += 1;
            }
            let name = self.name()?;
            if closing {
                self.skip_whitespace();
                if self.peek() != Some('>') {
                    return Err(self.err(&format!("malformed close tag `</{name}`")));
                }
                self.pos += 1;
                return Ok(Some(Event::Close { name, line, column }));
            }
            let attrs = self.attributes()?;
            let self_closing = self.peek() == Some('/');
            if self_closing {
                self.pos += 1;
            }
            if self.peek() != Some('>') {
                return Err(self.err(&format!("malformed tag `<{name}` (expected `>`)")));
            }
            self.pos += 1;
            return Ok(Some(Event::Open {
                name,
                attrs,
                self_closing,
                line,
                column,
            }));
        }
    }

    /// Consumes everything up to and including the matching close tag of
    /// an already-open element (used for `<graphics>`/`<toolspecific>`).
    fn skip_subtree(&mut self, name: &str) -> Result<(), NetError> {
        let mut depth = 1usize;
        while depth > 0 {
            match self.next_event()? {
                Some(Event::Open {
                    self_closing: false,
                    ..
                }) => depth += 1,
                Some(Event::Close { .. }) => depth -= 1,
                Some(_) => {}
                None => {
                    return Err(self.err(&format!("unclosed element `<{name}>` at end of input")))
                }
            }
        }
        Ok(())
    }

    fn skip_whitespace(&mut self) {
        while self.peek().is_some_and(char::is_whitespace) {
            self.pos += 1;
        }
    }

    fn name(&mut self) -> Result<String, NetError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected an element name after `<`"));
        }
        Ok(self.chars[start..self.pos].iter().collect())
    }

    fn attributes(&mut self) -> Result<Vec<(String, String)>, NetError> {
        let mut attrs = Vec::new();
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some('>') | Some('/') | None => return Ok(attrs),
                _ => {}
            }
            let key = self.name()?;
            self.skip_whitespace();
            if self.peek() != Some('=') {
                return Err(self.err(&format!("attribute `{key}` is missing `=`")));
            }
            self.pos += 1;
            self.skip_whitespace();
            let quote = match self.peek() {
                Some(q @ ('"' | '\'')) => q,
                _ => return Err(self.err(&format!("attribute `{key}` value must be quoted"))),
            };
            self.pos += 1;
            let start = self.pos;
            while self.peek().is_some_and(|c| c != quote) {
                self.pos += 1;
            }
            if self.peek().is_none() {
                return Err(self.err(&format!("unterminated value for attribute `{key}`")));
            }
            let raw: String = self.chars[start..self.pos].iter().collect();
            self.pos += 1; // closing quote
            attrs.push((key, decode_entities(&raw)));
        }
    }
}

/// Decodes the five predefined XML entities plus decimal/hex char refs.
fn decode_entities(text: &str) -> String {
    if !text.contains('&') {
        return text.to_string();
    }
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let Some(semi) = rest.find(';') else {
            out.push_str(rest);
            return out;
        };
        let entity = &rest[1..semi];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ => {
                let code = entity
                    .strip_prefix("#x")
                    .or_else(|| entity.strip_prefix("#X"))
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .or_else(|| entity.strip_prefix('#').and_then(|d| d.parse().ok()));
                match code.and_then(char::from_u32) {
                    Some(c) => out.push(c),
                    None => out.push_str(&rest[..=semi]), // leave unknown entities as-is
                }
            }
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOGGLE: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">
  <net id="toggle" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <name><text>a toggle net</text></name>
    <page id="page0">
      <!-- the single token bounces between on and off -->
      <place id="on">
        <name><text>lamp on</text></name>
        <graphics><position x="10" y="20"/></graphics>
        <initialMarking><text>1</text></initialMarking>
      </place>
      <place id="off"/>
      <transition id="switch_off"/>
      <transition id="switch_on"/>
      <arc id="a1" source="on" target="switch_off"/>
      <arc id="a2" source="switch_off" target="off"/>
      <arc id="a3" source="off" target="switch_on"/>
      <arc id="a4" source="switch_on" target="on"/>
    </page>
  </net>
</pnml>"#;

    #[test]
    fn parses_the_pt_subset() {
        let net = parse_pnml(TOGGLE).unwrap();
        assert_eq!(net.name(), "toggle");
        assert_eq!(net.place_count(), 2);
        assert_eq!(net.transition_count(), 2);
        assert_eq!(net.arc_count(), 4);
        let on = net.place_by_name("on").unwrap();
        assert!(net.initial_marking().is_marked(on));
        let off = net.place_by_name("off").unwrap();
        assert!(!net.initial_marking().is_marked(off));
        let t = net.transition_by_name("switch_off").unwrap();
        assert_eq!(net.pre_places(t), &[on]);
        assert_eq!(net.post_places(t), &[off]);
    }

    #[test]
    fn ignores_second_net_and_decodes_entities() {
        let text = r#"<pnml>
          <net id="first &amp; only">
            <place id="p&lt;1&gt;"><initialMarking><text> 1 </text></initialMarking></place>
          </net>
          <net id="second"><place id="zzz"/></net>
        </pnml>"#;
        let net = parse_pnml(text).unwrap();
        assert_eq!(net.name(), "first & only");
        assert!(net.place_by_name("p<1>").is_some());
        assert!(net.place_by_name("zzz").is_none());
    }

    #[test]
    fn rejects_unsafe_markings_and_weights() {
        let fat = r#"<pnml><net id="n">
          <place id="p"><initialMarking><text>3</text></initialMarking></place>
        </net></pnml>"#;
        let err = parse_pnml(fat).unwrap_err().to_string();
        assert!(err.contains("1-safe"), "{err}");
        assert!(err.contains("line 2"), "{err}");

        let heavy = r#"<pnml><net id="n">
          <place id="p"/><transition id="t"/>
          <arc id="a" source="p" target="t"><inscription><text>2</text></inscription></arc>
        </net></pnml>"#;
        let err = parse_pnml(heavy).unwrap_err().to_string();
        assert!(err.contains("weight 2"), "{err}");
    }

    #[test]
    fn rejects_malformed_documents() {
        for (text, needle) in [
            ("<pnml></pnml>", "no `<net>`"),
            ("<pnml><net id=\"n\">", "unclosed element"),
            ("<pnml><net id=\"n\"><place/></net></pnml>", "missing an `id`"),
            (
                "<pnml><net id=\"n\"><arc id=\"a\" source=\"x\"/></net></pnml>",
                "missing a `target`",
            ),
            (
                "<pnml><net id=\"n\"><place id=\"p\"/><arc id=\"a\" source=\"p\" target=\"q\"/></net></pnml>",
                "not a declared place or transition",
            ),
            (
                "<pnml><net id=\"n\"><place id=\"p\"/><place id=\"q\"/><arc id=\"a\" source=\"p\" target=\"q\"/></net></pnml>",
                "must connect a place and a transition",
            ),
            ("<pnml><net id=\"n\"></page></net></pnml>", "mismatched close tag"),
        ] {
            let err = parse_pnml(text).unwrap_err().to_string();
            assert!(err.contains(needle), "`{text}` -> `{err}`");
        }
    }

    #[test]
    fn duplicate_ids_fail_via_the_builder() {
        let text = r#"<pnml><net id="n"><place id="p"/><place id="p"/></net></pnml>"#;
        assert_eq!(
            parse_pnml(text).unwrap_err(),
            NetError::DuplicateName("p".into())
        );
    }

    #[test]
    fn parsed_net_verifies_like_a_native_one() {
        let net = parse_pnml(TOGGLE).unwrap();
        let report = crate::verify_all(&net);
        assert_eq!(report.state_count, 2);
        assert!(!report.has_deadlock);
    }
}

//! A small backtracking regex engine (the CRuby `oniguruma` stand-in).
//!
//! The paper found that in WEBrick and Rails "most of these aborts …
//! occurred in the regular-expression library": regex matching is a C-level
//! operation with *no yield points inside*, so a transaction that enters it
//! must absorb the engine's whole footprint. The `ruby-vm` builtins
//! reproduce that by touching the subject string's shadow buffer and
//! charging native cycles proportional to the work this engine reports.
//!
//! Supported syntax: literals, `.`, `*`, `+`, `?`, groups `(…)`
//! (capturing), character classes `[a-z0-9_]`, escaped punctuation (`\.`)
//! and `\n`/`\t`, anchors `^`/`$` — what the workloads' patterns use.
//! Alternation `|`, negated classes `[^…]` and any other escaped letter or
//! digit (`\d`, `\w`, `\s`, …) are a [`RegexError`], never a literal.

/// Compiled pattern: a backtracking instruction program (the classic
/// `Split`/`Jump`/`Save` form), so group contents backtrack correctly into
/// their continuation.
#[derive(Debug, Clone)]
pub struct Regex {
    prog: Vec<Inst>,
    pub source: String,
    pub ngroups: usize,
    anchored: bool,
}

#[derive(Debug, Clone)]
enum Inst {
    Char(char),
    Any,
    /// Any char in one of the inclusive ranges.
    Class(Vec<(char, char)>),
    /// Try `a` first, backtrack into `b`.
    Split(usize, usize),
    Jump(usize),
    /// Record the current position in save slot `n` (2k = group-k start,
    /// 2k+1 = group-k end).
    Save(usize),
    AnchorStart,
    AnchorEnd,
    Matched,
}

/// Backtracking-step budget per `find` attempt: keeps pathological
/// patterns ((a+)+b) from hanging the simulator; exceeding it counts as
/// "no match", which is also what oniguruma's backtrack limit does.
const STEP_BUDGET: usize = 200_000;

#[derive(Debug, Clone)]
enum Ast {
    Char(char),
    Any,
    Class(Vec<(char, char)>),
    Star(Box<Ast>),
    Plus(Box<Ast>),
    Opt(Box<Ast>),
    Group(usize, Vec<Ast>),
    AnchorStart,
    AnchorEnd,
}

/// Compile error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError(pub String);

impl std::fmt::Display for RegexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "regex error: {}", self.0)
    }
}

impl std::error::Error for RegexError {}

/// A successful match. Positions are char indices into the subject; the
/// capture groups stay in the [`Scratch`] the search ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchResult {
    pub start: usize,
    pub end: usize,
    /// Positions examined — the cost measure the VM charges cycles for.
    pub steps: usize,
}

/// The engine's working memory, owned by the caller (the VM keeps one)
/// and reused from call to call. A search resets what it reads: nothing
/// carries over but capacity — and, after a hit, that match's groups.
#[derive(Debug, Default)]
pub struct Scratch {
    /// The subject, one `char` a position.
    chars: Vec<char>,
    /// Save slots of the attempt under way (2k = group-k start, 2k+1 =
    /// group-k end; 0 and 1 are written when it matches).
    saves: Vec<usize>,
    /// `(pc, pos)` backtrack points, most recent last.
    stack: Vec<(usize, usize)>,
    /// The save slots as they stood at each point of `stack`, end to end.
    snaps: Vec<usize>,
}

impl Scratch {
    /// Groups of the last search's pattern, the whole match included.
    pub fn groups(&self) -> usize {
        self.saves.len() / 2
    }

    /// Span of group `g` (0 = the whole match) of the last successful
    /// [`Regex::find`]; `None` for a group that took no part in it.
    pub fn group(&self, g: usize) -> Option<(usize, usize)> {
        let (s, e) = (self.saves[2 * g], self.saves[2 * g + 1]);
        (s != usize::MAX && e != usize::MAX).then_some((s, e))
    }
}

impl Regex {
    pub fn compile(pattern: &str) -> Result<Regex, RegexError> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut p = Parser { chars, pos: 0, ngroups: 0 };
        let seq = p.sequence()?;
        if p.pos != p.chars.len() {
            return Err(RegexError(format!("trailing characters at {}", p.pos)));
        }
        let ngroups = p.ngroups;
        let anchored = matches!(seq.first(), Some(Ast::AnchorStart));
        let mut prog = Vec::new();
        emit_seq(&mut prog, &seq);
        prog.push(Inst::Matched);
        Ok(Regex { prog, source: pattern.to_string(), ngroups, anchored })
    }

    /// Find the leftmost match in `subject`, working on `m`.
    pub fn find(&self, subject: &str, m: &mut Scratch) -> Option<MatchResult> {
        m.chars.clear();
        m.chars.extend(subject.chars());
        let mut steps = 0usize;
        for start in 0..=m.chars.len() {
            m.saves.clear();
            m.saves.resize(2 * (self.ngroups + 1), usize::MAX);
            if let Some(end) = self.run(start, m, &mut steps) {
                m.saves[..2].copy_from_slice(&[start, end]);
                return Some(MatchResult { start, end, steps });
            }
            if self.anchored || steps > STEP_BUDGET {
                break;
            }
        }
        None
    }

    /// Backtracking executor with an explicit stack.
    fn run(&self, start: usize, m: &mut Scratch, steps: &mut usize) -> Option<usize> {
        let Scratch { chars, saves, stack, snaps } = m;
        stack.clear();
        snaps.clear();
        let mut pc = 0usize;
        let mut pos = start;
        loop {
            *steps += 1;
            if *steps > STEP_BUDGET {
                return None;
            }
            let advance = match &self.prog[pc] {
                Inst::Matched => return Some(pos),
                Inst::Char(c) => chars.get(pos) == Some(c),
                Inst::Any => pos < chars.len(),
                Inst::Class(ranges) => match chars.get(pos) {
                    Some(&ch) => ranges.iter().any(|&(lo, hi)| ch >= lo && ch <= hi),
                    None => false,
                },
                Inst::AnchorStart => {
                    if pos == 0 {
                        pc += 1;
                        continue;
                    }
                    false
                }
                Inst::AnchorEnd => {
                    if pos == chars.len() {
                        pc += 1;
                        continue;
                    }
                    false
                }
                Inst::Save(n) => {
                    // No undo entry needed: every Split snapshots the whole
                    // save vector, so backtracking restores it wholesale.
                    saves[*n] = pos;
                    pc += 1;
                    continue;
                }
                Inst::Jump(x) => {
                    pc = *x;
                    continue;
                }
                Inst::Split(a, b) => {
                    stack.push((*b, pos));
                    snaps.extend_from_slice(saves);
                    pc = *a;
                    continue;
                }
            };
            if advance {
                pc += 1;
                pos += 1;
            } else {
                // Backtrack to the most recent split and its snapshot.
                (pc, pos) = stack.pop()?;
                let at = snaps.len() - saves.len();
                saves.copy_from_slice(&snaps[at..]);
                snaps.truncate(at);
            }
        }
    }
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    ngroups: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn sequence(&mut self) -> Result<Vec<Ast>, RegexError> {
        let mut seq = Vec::new();
        while let Some(c) = self.peek() {
            if c == ')' {
                break;
            }
            let atom = self.atom()?;
            let atom = match self.peek() {
                Some('*') => {
                    self.bump();
                    Ast::Star(Box::new(atom))
                }
                Some('+') => {
                    self.bump();
                    Ast::Plus(Box::new(atom))
                }
                Some('?') => {
                    self.bump();
                    Ast::Opt(Box::new(atom))
                }
                _ => atom,
            };
            seq.push(atom);
        }
        Ok(seq)
    }

    fn atom(&mut self) -> Result<Ast, RegexError> {
        match self.bump() {
            Some('(') => {
                self.ngroups += 1;
                let idx = self.ngroups;
                let seq = self.sequence()?;
                if self.bump() != Some(')') {
                    return Err(RegexError("unclosed group".into()));
                }
                Ok(Ast::Group(idx, seq))
            }
            Some('[') => self.class_atom(),
            Some('.') => Ok(Ast::Any),
            Some('^') => Ok(Ast::AnchorStart),
            Some('$') => Ok(Ast::AnchorEnd),
            Some('\\') => Ok(Ast::Char(self.escaped()?)),
            Some('|') => Err(RegexError("alternation `|` is outside the subset".into())),
            Some(c) if c == '*' || c == '+' || c == '?' => {
                Err(RegexError(format!("dangling quantifier {c:?}")))
            }
            Some(c) => Ok(Ast::Char(c)),
            None => Err(RegexError("unexpected end of pattern".into())),
        }
    }

    /// The char a `\` escapes: punctuation as itself, `\n`/`\t` as the
    /// control char; another letter or digit would name a class (`\d`) or
    /// an anchor (`\b`) the engine lacks.
    fn escaped(&mut self) -> Result<char, RegexError> {
        match self.bump() {
            Some('n') => Ok('\n'),
            Some('t') => Ok('\t'),
            Some(c) if c.is_ascii_alphanumeric() => {
                Err(RegexError(format!("escape \\{c} is outside the subset")))
            }
            Some(c) => Ok(c),
            None => Err(RegexError("dangling escape".into())),
        }
    }

    fn class_atom(&mut self) -> Result<Ast, RegexError> {
        if self.peek() == Some('^') {
            return Err(RegexError("negated classes `[^…]` are outside the subset".into()));
        }
        let mut ranges = Vec::new();
        loop {
            let c = self.bump().ok_or_else(|| RegexError("unclosed character class".into()))?;
            if c == ']' {
                break;
            }
            let c = if c == '\\' { self.escaped()? } else { c };
            if self.peek() == Some('-') && self.chars.get(self.pos + 1) != Some(&']') {
                self.bump();
                let hi = self.bump().ok_or_else(|| RegexError("unclosed range".into()))?;
                ranges.push((c, hi));
            } else {
                ranges.push((c, c));
            }
        }
        Ok(Ast::Class(ranges))
    }
}

fn emit_seq(prog: &mut Vec<Inst>, seq: &[Ast]) {
    for a in seq {
        emit_atom(prog, a);
    }
}

fn emit_atom(prog: &mut Vec<Inst>, a: &Ast) {
    match a {
        Ast::Char(c) => prog.push(Inst::Char(*c)),
        Ast::Any => prog.push(Inst::Any),
        Ast::Class(ranges) => prog.push(Inst::Class(ranges.clone())),
        Ast::AnchorStart => prog.push(Inst::AnchorStart),
        Ast::AnchorEnd => prog.push(Inst::AnchorEnd),
        Ast::Opt(inner) => {
            // split BODY, END
            let sp = prog.len();
            prog.push(Inst::Split(sp + 1, 0));
            emit_atom(prog, inner);
            let end = prog.len();
            if let Inst::Split(_, b) = &mut prog[sp] {
                *b = end;
            }
        }
        Ast::Star(inner) => {
            // L1: split BODY, END; BODY: inner; jump L1; END:
            let l1 = prog.len();
            prog.push(Inst::Split(l1 + 1, 0));
            emit_atom(prog, inner);
            prog.push(Inst::Jump(l1));
            let end = prog.len();
            if let Inst::Split(_, b) = &mut prog[l1] {
                *b = end;
            }
        }
        Ast::Plus(inner) => {
            // L1: inner; split L1, END
            let l1 = prog.len();
            emit_atom(prog, inner);
            let sp = prog.len();
            prog.push(Inst::Split(l1, sp + 1));
        }
        Ast::Group(idx, seq) => {
            prog.push(Inst::Save(2 * idx));
            emit_seq(prog, seq);
            prog.push(Inst::Save(2 * idx + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, subj: &str) -> Option<(usize, usize)> {
        let hit = Regex::compile(pat).unwrap().find(subj, &mut Scratch::default());
        hit.map(|r| (r.start, r.end))
    }

    #[test]
    fn literals() {
        assert_eq!(m("abc", "xxabczz"), Some((2, 5)));
        assert_eq!(m("abc", "ab"), None);
    }

    #[test]
    fn dot_and_classes() {
        assert_eq!(m("a.c", "abc"), Some((0, 3)));
        assert_eq!(m("[0-9]+", "ab123cd"), Some((2, 5)));
        assert_eq!(m("[A-Za-z-]+", "12a-B3"), Some((2, 5)));
        assert_eq!(m("1\\.[01]", "v1.1"), Some((1, 4)));
        assert_eq!(m("[\\.]\\n", "a.\n"), Some((1, 3)));
    }

    #[test]
    fn quantifiers() {
        assert_eq!(m("ab*c", "ac"), Some((0, 2)));
        assert_eq!(m("ab*c", "abbbc"), Some((0, 5)));
        assert_eq!(m("ab+c", "ac"), None);
        assert_eq!(m("ab?c", "abc"), Some((0, 3)));
        assert_eq!(m("ab?c", "ac"), Some((0, 2)));
    }

    #[test]
    fn anchors() {
        assert_eq!(m("^ab", "abc"), Some((0, 2)));
        assert_eq!(m("^b", "abc"), None);
        assert_eq!(m("bc$", "abc"), Some((1, 3)));
        assert_eq!(m("ab$", "abc"), None);
    }

    #[test]
    fn groups() {
        let r = Regex::compile("GET (.*) HTTP/(1\\.[01])").unwrap();
        let mut scratch = Scratch::default();
        let res = r.find("GET /index.html HTTP/1.1", &mut scratch).unwrap();
        assert_eq!(scratch.group(0), Some((res.start, res.end)));
        assert_eq!(scratch.group(1), Some((4, 15)));
        assert_eq!(scratch.group(2), Some((21, 24)));
        assert_eq!(m("(ab)+c", "xababc"), Some((1, 6)));
        assert_eq!(m("^/books(/([0-9]+))?$", "/books/42"), Some((0, 9)));
    }

    #[test]
    fn steps_grow_with_subject() {
        let r = Regex::compile("ab$").unwrap();
        let m = &mut Scratch::default();
        let short = r.find("ab", m).unwrap().steps;
        let long = r.find(&"ab".repeat(100), m).unwrap().steps;
        assert!(long > short, "cost must scale with subject length");
    }

    #[test]
    fn backtracking_terminates() {
        // Classic pathological pattern must still terminate.
        let r = Regex::compile("(a+)+b").unwrap();
        assert!(r.find("aaaaaaaaaaaaaaaa", &mut Scratch::default()).is_none());
    }

    // ---- the engine on a scratch is the engine it replaced ----------------
    //
    // `ref_find`/`ref_run` are `Regex::find`/`Regex::run` as they stood
    // before the scratch (PR 19's tree), verbatim but for `self` → `re`
    // and the step count handed out on a miss too: a `chars` vector per
    // search, a `saves` vector per start position, a backtrack stack per
    // attempt and a `saves.clone()` per `Split`.

    #[derive(Debug, PartialEq)]
    struct RefMatch {
        start: usize,
        end: usize,
        groups: Vec<Option<(usize, usize)>>,
        steps: usize,
    }

    fn ref_find(re: &Regex, subject: &str) -> (Option<RefMatch>, usize) {
        let chars: Vec<char> = subject.chars().collect();
        let mut steps = 0usize;
        for start in 0..=chars.len() {
            let mut saves = vec![usize::MAX; 2 * (re.ngroups + 1)];
            if let Some(end) = ref_run(re, &chars, start, &mut saves, &mut steps) {
                let mut groups = vec![None; re.ngroups + 1];
                groups[0] = Some((start, end));
                for g in 1..=re.ngroups {
                    let (s, e) = (saves[2 * g], saves[2 * g + 1]);
                    if s != usize::MAX && e != usize::MAX {
                        groups[g] = Some((s, e));
                    }
                }
                return (Some(RefMatch { start, end, groups, steps }), steps);
            }
            if re.anchored || steps > STEP_BUDGET {
                break;
            }
        }
        (None, steps)
    }

    fn ref_run(
        re: &Regex,
        chars: &[char],
        start: usize,
        saves: &mut Vec<usize>,
        steps: &mut usize,
    ) -> Option<usize> {
        let mut stack: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        let mut pc = 0usize;
        let mut pos = start;
        loop {
            *steps += 1;
            if *steps > STEP_BUDGET {
                return None;
            }
            let advance = match &re.prog[pc] {
                Inst::Matched => return Some(pos),
                Inst::Char(c) => chars.get(pos) == Some(c),
                Inst::Any => pos < chars.len(),
                Inst::Class(ranges) => match chars.get(pos) {
                    Some(&ch) => ranges.iter().any(|&(lo, hi)| ch >= lo && ch <= hi),
                    None => false,
                },
                Inst::AnchorStart => {
                    if pos == 0 {
                        pc += 1;
                        continue;
                    }
                    false
                }
                Inst::AnchorEnd => {
                    if pos == chars.len() {
                        pc += 1;
                        continue;
                    }
                    false
                }
                Inst::Save(n) => {
                    saves[*n] = pos;
                    pc += 1;
                    continue;
                }
                Inst::Jump(x) => {
                    pc = *x;
                    continue;
                }
                Inst::Split(a, b) => {
                    stack.push((*b, pos, saves.clone()));
                    pc = *a;
                    continue;
                }
            };
            if advance {
                pc += 1;
                pos += 1;
            } else {
                match stack.pop() {
                    Some((bpc, bpos, bsaves)) => {
                        pc = bpc;
                        pos = bpos;
                        *saves = bsaves;
                    }
                    None => return None,
                }
            }
        }
    }

    /// `find` on `scratch` against the reference: the hit, every group
    /// and the step count the VM charges for.
    fn assert_same_engine(re: &Regex, subject: &str, scratch: &mut Scratch) {
        let what = format!("/{}/ on {subject:?}", re.source);
        let (want, _) = ref_find(re, subject);
        let got = re.find(subject, scratch).map(|m| RefMatch {
            start: m.start,
            end: m.end,
            groups: (0..scratch.groups()).map(|g| scratch.group(g)).collect(),
            steps: m.steps,
        });
        assert_eq!(got, want, "{what}");
    }

    /// A pattern spelt out of `gene`, byte by byte: classes, groups, an
    /// escape, the three quantifiers, both anchors. A gene that runs
    /// out yields the choices that end the pattern.
    struct PatternGen<'a> {
        gene: std::slice::Iter<'a, u8>,
        out: String,
    }

    impl PatternGen<'_> {
        fn next(&mut self) -> u8 {
            self.gene.next().copied().unwrap_or(u8::MAX)
        }

        fn sequence(&mut self, depth: u32) {
            for _ in 0..1 + self.next() % 3 {
                self.atom(depth);
                match self.next() % 7 {
                    0 => self.out.push('*'),
                    1 => self.out.push('+'),
                    2 => self.out.push('?'),
                    _ => {}
                }
            }
        }

        fn atom(&mut self, depth: u32) {
            match self.next() % 12 {
                0 | 1 if depth < 3 => {
                    self.out.push('(');
                    self.sequence(depth + 1);
                    self.out.push(')');
                }
                2 => self.out.push('.'),
                3 => self.out.push_str("[ab]"),
                4 => self.out.push_str("[bc]"),
                5 => self.out.push_str("[a-c1]"),
                6 => self.out.push_str("[0-9]"),
                7 => self.out.push_str("[ \\.é]"),
                8 => self.out.push('^'),
                9 => self.out.push('$'),
                b => self.out.push(['a', 'b', 'c'][usize::from(b) % 3]),
            }
        }
    }

    fn pattern(gene: &[u8]) -> Regex {
        let mut g = PatternGen { gene: gene.iter(), out: String::new() };
        g.sequence(0);
        Regex::compile(&g.out).unwrap_or_else(|e| panic!("generated /{}/: {e}", g.out))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        #[test]
        fn the_scratch_engine_is_the_reference_engine(
            gene in proptest::collection::vec(0u8..255, 1..28),
            subject in "[abc1 é]{0,14}",
        ) {
            assert_same_engine(&pattern(&gene), &subject, &mut Scratch::default());
        }

        /// Two regexps with different group counts take turns on one
        /// scratch: each search reads only what it reset itself.
        #[test]
        fn nothing_leaks_between_searches_on_one_scratch(
            genes in (proptest::collection::vec(0u8..255, 1..28), proptest::collection::vec(0u8..255, 1..28)),
            subjects in ("[abc1 é]{0,14}", "[abc1 é]{0,14}"),
        ) {
            let (a, b) = (pattern(&genes.0), pattern(&genes.1));
            let mut scratch = Scratch::default();
            for _ in 0..2 {
                for (re, subject) in [(&a, &subjects.0), (&b, &subjects.1), (&a, &subjects.1)] {
                    assert_same_engine(re, subject, &mut scratch);
                }
            }
        }
    }

    /// Searches that run into `STEP_BUDGET` stop at the same step with the
    /// same answer, and leave a scratch the next search can use.
    #[test]
    fn searches_that_trip_the_step_budget_match_the_reference() {
        let mut scratch = Scratch::default();
        for (pat, subject) in [
            ("(a+)+b", "a".repeat(28)),
            ("(a*)*b", "a".repeat(20) + "c"),
            ("(a?a)+$", "a".repeat(40) + "b"),
            ("(^)*b", "aaa".to_string()),
        ] {
            let re = Regex::compile(pat).unwrap();
            let (hit, steps) = ref_find(&re, &subject);
            assert!(hit.is_none() && steps > STEP_BUDGET, "/{pat}/ must trip the budget: {steps}");
            assert_same_engine(&re, &subject, &mut scratch);
            assert_same_engine(&Regex::compile("(a)(b)?").unwrap(), "cab", &mut scratch);
        }
    }

    #[test]
    fn compile_errors() {
        assert!(Regex::compile("(abc").is_err());
        assert!(Regex::compile("[abc").is_err());
        assert!(Regex::compile("*a").is_err());
        // Deleted features are errors, never read as literals.
        for pat in ["a|b", "(a|b)c", "[^a]", "\\d", "\\w+", "\\s", "[\\d]", "\\b"] {
            assert!(Regex::compile(pat).is_err(), "/{pat}/");
        }
    }
}
